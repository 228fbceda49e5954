"""Checks BENCHMARK.json and the result line against the benchmark contract."""

import math
import re

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _names(items, keys):
    names = []
    for item in items:
        if set(item) != keys:
            raise ValueError(f"{item} must have exactly the keys {keys}")
        if not NAME.match(item["name"]):
            raise ValueError(f"bad name {item['name']!r}")
        names.append(item["name"])
    return names


def validate_spec(spec):
    """Raises ValueError when BENCHMARK.json breaks the contract."""
    if set(spec) != SPEC_KEYS:
        raise ValueError(f"BENCHMARK.json keys must be {SPEC_KEYS}")
    command = spec["command"]
    if not (1 <= len(command) <= 32) or any(
            not isinstance(c, str) or len(c) > 200 for c in command):
        raise ValueError("command must be 1..32 strings of <= 200 chars")
    for c in command:
        if c.startswith("/") or ".." in c.split("/"):
            raise ValueError(f"command argument {c!r} leaves the repo")
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16 or any(not PATH.match(p) for p in paths):
        raise ValueError("paths must be 1..16 relative paths")
    if any(p.startswith("/") or ".." in p.split("/") for p in paths):
        raise ValueError("paths must stay inside the repo")
    seconds = spec["run_seconds"]
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        raise ValueError("run_seconds must be a whole number in 1..60")
    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        raise ValueError("need 2..8 workloads")
    names = _names(workloads, {"name", "why"})
    for w in workloads:
        if "\n" in w["why"] or not 0 < len(w["why"]) <= 200:
            raise ValueError(f"why of {w['name']} must be one line <= 200")
    e2e = spec["end_to_end"]
    if not 1 <= len(e2e) <= 16:
        raise ValueError("need 1..16 end_to_end metrics")
    names += _names(e2e, {"name", "unit", "better", "bound"})
    layers = spec["per_layer"]
    if not 1 <= len(layers) <= 128:
        raise ValueError("need 1..128 per_layer metrics")
    names += _names(layers, {"name", "unit", "better"})
    if len(names) != len(set(names)):
        raise ValueError("names must be unique")
    for m in e2e + layers:
        if not UNIT.match(m["unit"]):
            raise ValueError(f"bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            raise ValueError(f"better of {m['name']} must be lower|higher")
    for m in e2e:
        if not 0 < m["bound"] <= 0.25:
            raise ValueError(f"bound of {m['name']} must be in (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise ValueError("setup_s (s, lower) is required")
    if setup[0]["bound"] != max(m["bound"] for m in e2e):
        raise ValueError("setup_s must have the largest bound")


def validate_result(result, spec, trace):
    """Raises ValueError when a result line breaks the contract."""
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys must be {RESULT_KEYS}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} must be a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"]:
        raise ValueError("attempted must be >= 1 and failed >= 0")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise ValueError("metrics must be exactly the declared list")
    for m in wanted:
        entry = metrics[m["name"]]
        if set(entry) != {"value", "unit"} or entry["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} must carry value and its unit")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"{m['name']} must be a finite number")
        if not trace and value == 0:
            raise ValueError(f"end-to-end metric {m['name']} reads 0")
