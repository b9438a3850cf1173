// Little-endian wire primitives for the persistence layer.
//
// Everything osguard::persist puts on disk — journal frames, snapshots, the
// engine's opaque state images — is built from this one vocabulary: fixed
// little-endian integers, IEEE-754 doubles by bit pattern, u32
// length-prefixed strings, and a recursive tagged encoding for Value. The
// encoding is deliberately position-independent and free of host types so a
// journal written by one build replays on another.
//
// ByteReader is written for hostile input (the decoder fuzz target feeds it
// torn, bit-flipped, and truncated frames): every read is bounds-checked and
// fails with the byte offset in the message, and Value decoding is
// depth-limited. Decoders never crash and never allocate proportionally to a
// length field they have not yet validated against the remaining input.

#ifndef SRC_PERSIST_WIRE_H_
#define SRC_PERSIST_WIRE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/store/value.h"
#include "src/support/status.h"

namespace osguard {

// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8: eight bytes per
// step through eight 256-entry tables, assembled byte by byte so the result
// does not depend on host endianness or alignment. No zlib dependency; the
// persist layer frames every payload with this.
uint32_t Crc32(std::string_view data);

// Little-endian stores into a buffer the caller has already sized.
inline void PutU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<char>(v >> (8 * i));
  }
}
inline void PutU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<char>(v >> (8 * i));
  }
}
inline void PutF64(char* p, double v) { PutU64(p, std::bit_cast<uint64_t>(v)); }

// Appends primitives to a caller-owned buffer, one append per field.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    char bytes[4];
    PutU32(bytes, v);
    out_->append(bytes, sizeof(bytes));
  }
  void U64(uint64_t v) {
    char bytes[8];
    PutU64(bytes, v);
    out_->append(bytes, sizeof(bytes));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  // u32 length prefix + raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }
  void Raw(std::string_view bytes) { out_->append(bytes); }

  // Grows the buffer by `n` bytes and returns where they start, for
  // fixed-size blocks written with PutU32/PutU64/PutF64. The pointer is
  // valid until the next append.
  char* Extend(size_t n) {
    const size_t at = out_->size();
    out_->resize(at + n);
    return out_->data() + at;
  }
  // Overwrites the u32 at `offset`: a count or length written as a
  // placeholder before the bytes it describes.
  void PatchU32(size_t offset, uint32_t v) { PutU32(out_->data() + offset, v); }

 private:
  std::string* out_;
};

// Sequential bounds-checked reads over a borrowed buffer. All errors carry
// the failing byte offset so persist can annotate them with the file name.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }
  bool done() const { return offset_ == data_.size(); }

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<double> F64();
  // u32 length prefix + raw bytes; the view aliases the underlying buffer.
  Result<std::string_view> Str();
  Result<std::string_view> Bytes(size_t n);

 private:
  std::string_view data_;
  size_t offset_ = 0;
};

// Tagged Value encoding: ValueType byte, then the payload (recursive for
// lists, depth-limited to 32 on decode).
void WriteValue(ByteWriter& w, const Value& value);
Result<Value> ReadValue(ByteReader& r, int depth = 0);

}  // namespace osguard

#endif  // SRC_PERSIST_WIRE_H_
