// Bounds-checked binary encoding primitives for the snapshot format, and
// the durable file replace every on-disk writer goes through.
//
// Everything on disk is little-endian and fixed-width; doubles are raw
// IEEE-754 bits (the persistence contract is *byte* identity of restored
// scores, so no text round-trip is allowed anywhere near a double).
//
// ByteSink builds a buffer; ByteSource consumes one. Every ByteSource read
// is bounds-checked and returns InvalidArgument instead of reading past
// the end, so a truncated or bit-flipped file can never touch memory it
// does not own — corrupt input must fail with a Status, never with UB
// (tests/persist_test.cc flips bytes under ASan to hold this line).
#ifndef FUSER_PERSIST_BINARY_IO_H_
#define FUSER_PERSIST_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "common/bitset.h"
#include "common/status.h"

namespace fuser {
namespace persist {

/// 64-bit FNV-1a over a byte range, optionally chained via `seed` (see
/// HashBytes64 in common/bit_util.h). Every step is a bijection of the
/// running state, so any single-byte change anywhere in the range changes
/// the final value — which is what makes the per-section checksums catch
/// every 1-byte corruption in the fuzz tests.
uint64_t Checksum64(const void* data, size_t size,
                    uint64_t seed = 0xCBF29CE484222325ULL);

/// Decodes one little-endian u32/u64 at `p`. Bounds are the caller's
/// responsibility — these are the raw primitives shared by ByteSource's
/// bulk array reads and the network layer's frame-header parsing
/// (src/net/wire.h), which both peek into a byte stream at known offsets
/// before committing to consume it.
uint32_t LoadU32LE(const void* p);
uint64_t LoadU64LE(const void* p);

/// Replaces `path` so that a crash leaves either the old file or the whole
/// new one: `write` fills `path + ".tmp"`, which is flushed, fsynced and
/// renamed over `path`; then the directory is fsynced (best effort) so the
/// rename itself is durable. On any failure, the rename's included, the
/// temp file is removed and `path` is untouched.
Status WriteFileDurably(const std::string& path,
                        const std::function<Status(std::FILE*)>& write);

/// Append-only little-endian encoder.
class ByteSink {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteDouble(double v);
  /// u64 byte length followed by the raw bytes.
  void WriteString(const std::string& s);
  /// u64 bit count followed by the packed words.
  void WriteBitset(const DynamicBitset& bits);
  void WriteRaw(const void* data, size_t size);

  size_t size() const { return buffer_.size(); }
  const std::string& data() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Bounds-checked little-endian decoder over a caller-owned byte range.
class ByteSource {
 public:
  /// Empty source (every read fails); needed so StatusOr<ByteSource> can
  /// default-construct its value slot.
  ByteSource() = default;
  ByteSource(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  Status ReadU8(uint8_t* v);
  Status ReadBool(bool* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadI32(int32_t* v);
  Status ReadDouble(double* v);
  Status ReadString(std::string* s);
  Status ReadBitset(DynamicBitset* bits);

  /// Bulk little-endian array reads (one bounds check, then a tight
  /// decode loop) for the large payloads — pattern ids, score vectors,
  /// posterior tables — where per-element Status plumbing would dominate
  /// the warm-start wall clock.
  Status ReadU32Array(uint32_t* out, size_t n);
  Status ReadU64Array(uint64_t* out, size_t n);
  Status ReadDoubleArray(double* out, size_t n);

  /// Reads a u64 element count and validates that `count * min_elem_bytes`
  /// elements could still fit in the unread remainder — so a corrupt count
  /// fails fast instead of driving a multi-gigabyte allocation.
  Status ReadCount(size_t min_elem_bytes, size_t* count);

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  Status Need(size_t bytes) const {
    if (bytes > remaining()) {
      return Status::InvalidArgument("snapshot data truncated mid-field");
    }
    return Status::OK();
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
};

}  // namespace persist
}  // namespace fuser

#endif  // FUSER_PERSIST_BINARY_IO_H_
