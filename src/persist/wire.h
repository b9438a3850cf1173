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

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

// --- Field lists ---
//
// Each piece of state the engine image carries, and the report record,
// lists its persisted fields once, in wire order, in a static member
// template of the component that owns the state:
//
//   template <class Io, class Self>
//   static void PersistFields(Io& io, Self& self);
//
// Encoding instantiates it with a FieldWriter and `Self = const T`, decoding
// with a FieldReader and `Self = T`, so the two directions cannot drift
// apart. Both classes offer the same operations:
//
//   U32 U64 I64 F64           fixed-width little-endian numbers
//   Bool                      one byte, 0 or 1 (decoded as != 0)
//   Str                       u32 length + bytes
//   Val                       a tagged Value
//   Enum(e, max, what)        one byte; decoding refuses values above `max`
//   Seq(c, what, each)        u32 count, then each(element) in container order
//   SortedMap(m, what, each)  u32 count, then each(key, value) in key order
//   Optional(p, each)         presence byte, then each(*p) when p is not null

class FieldWriter {
 public:
  explicit FieldWriter(std::string* out) : w_(out) {}

  void U32(uint32_t v) { w_.U32(v); }
  void U64(uint64_t v) { w_.U64(v); }
  void I64(int64_t v) { w_.I64(v); }
  void F64(double v) { w_.F64(v); }
  void Bool(bool v) { w_.U8(v ? 1 : 0); }
  void Str(std::string_view s) { w_.Str(s); }
  void Val(const Value& v) { WriteValue(w_, v); }
  template <class E>
  void Enum(E e, E /*max*/, const char* /*what*/) { w_.U8(static_cast<uint8_t>(e)); }
  template <class C, class Each>
  void Seq(const C& seq, const char* /*what*/, Each&& each) {
    w_.U32(static_cast<uint32_t>(seq.size()));
    for (const auto& element : seq) {
      each(element);
    }
  }
  // Sorts pointers to the entries, so no key is copied.
  template <class Map, class Each>
  void SortedMap(const Map& map, const char* /*what*/, Each&& each) {
    std::vector<const typename Map::value_type*> entries;
    entries.reserve(map.size());
    for (const auto& entry : map) {
      entries.push_back(&entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    w_.U32(static_cast<uint32_t>(entries.size()));
    for (const auto* entry : entries) {
      each(entry->first, entry->second);
    }
  }
  template <class T, class Each>
  void Optional(const T* p, Each&& each) {
    w_.U8(p != nullptr ? 1 : 0);
    if (p != nullptr) {
      each(*p);
    }
  }

 private:
  ByteWriter w_;
};

// Decodes into live state and keeps the first error: after it, every
// operation is a no-op that leaves its target untouched. Errors the reader
// raises itself open with `context` ("image: bad governor mode 7"); a short
// read keeps ByteReader's message. Every count is checked against the
// remaining input before anything is allocated for it: each element takes
// at least one byte.
class FieldReader {
 public:
  // `context` must outlive the reader (a string literal, in practice).
  FieldReader(std::string_view data, std::string_view context) : r_(data), context_(context) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return r_.remaining(); }
  bool done() const { return r_.done(); }
  // Optional sections the input carried for a null target: read, then dropped.
  uint64_t dropped() const { return dropped_; }

  template <std::integral T>
  void U32(T& v) { Take([this] { return r_.U32(); }, v); }
  template <std::integral T>
  void U64(T& v) { Take([this] { return r_.U64(); }, v); }
  template <std::integral T>
  void I64(T& v) { Take([this] { return r_.I64(); }, v); }
  void F64(double& v) { Take([this] { return r_.F64(); }, v); }
  void Bool(bool& v) {
    uint8_t byte = v ? 1 : 0;
    Take([this] { return r_.U8(); }, byte);
    v = byte != 0;
  }
  void Str(std::string& s) { Take([this] { return r_.Str(); }, s); }
  void Val(Value& v) { Take([this] { return ReadValue(r_); }, v); }
  template <class E>
  void Enum(E& e, E max, const char* what) {
    uint8_t byte = 0;
    Take([this] { return r_.U8(); }, byte);
    if (ok() && byte > static_cast<uint8_t>(max)) {
      Fail(std::string("bad ") + what + " " + std::to_string(byte));
    }
    if (ok()) {
      e = static_cast<E>(byte);
    }
  }
  template <class C, class Each>
  void Seq(C& seq, const char* what, Each&& each) {
    const uint32_t n = Count(what);
    if (ok()) {
      seq.clear();
    }
    for (uint32_t i = 0; i < n && ok(); ++i) {
      each(seq.emplace_back());
    }
  }
  template <class Map, class Each>
  void SortedMap(Map& map, const char* what, Each&& each) {
    const uint32_t n = Count(what);
    if (ok()) {
      map.clear();
    }
    for (uint32_t i = 0; i < n && ok(); ++i) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      each(key, value);
      if (ok()) {
        map.insert_or_assign(std::move(key), value);
      }
    }
  }
  template <class T, class Each>
  void Optional(T* p, Each&& each) {
    bool present = false;
    Bool(present);
    if (present && p != nullptr) {
      each(*p);
    } else if (present) {
      T spare{};
      each(spare);
      ++dropped_;
    }
  }

  // A u32 count, refused ("<what> count N exceeds input") when it is larger
  // than the remaining input. 0 once an error is held.
  uint32_t Count(const char* what);

 private:
  template <class Read, class T>
  void Take(Read read, T& v) {
    if (!ok()) {
      return;
    }
    auto got = read();
    if (got.ok()) {
      v = static_cast<T>(std::move(got).value());
    } else {
      status_ = got.status();
    }
  }
  void Fail(const std::string& message);

  ByteReader r_;
  std::string_view context_;
  Status status_;
  uint64_t dropped_ = 0;
};

}  // namespace osguard

#endif  // SRC_PERSIST_WIRE_H_
