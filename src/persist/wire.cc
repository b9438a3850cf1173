#include "src/persist/wire.h"

#include <cstring>
#include <utility>
#include <vector>

namespace osguard {

namespace {

// t[0] is the classic one-byte table; t[k][b] is t[0][b] carried through k
// more zero bytes, so one step of eight lookups folds in eight input bytes.
struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

Status TruncatedError(size_t offset, size_t need, size_t have) {
  return OutOfRangeError("truncated: need " + std::to_string(need) + " bytes at offset " +
                         std::to_string(offset) + ", have " + std::to_string(have));
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto& t = kCrc32Tables.t;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  // The last n % 8 (at most seven) bytes, one lookup each.
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

Result<uint8_t> ByteReader::U8() {
  if (remaining() < 1) {
    return TruncatedError(offset_, 1, remaining());
  }
  return static_cast<uint8_t>(data_[offset_++]);
}

Result<uint32_t> ByteReader::U32() {
  if (remaining() < 4) {
    return TruncatedError(offset_, 4, remaining());
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[offset_ + i])) << (8 * i);
  }
  offset_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  if (remaining() < 8) {
    return TruncatedError(offset_, 8, remaining());
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[offset_ + i])) << (8 * i);
  }
  offset_ += 8;
  return v;
}

Result<int64_t> ByteReader::I64() {
  OSGUARD_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::F64() {
  OSGUARD_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string_view> ByteReader::Str() {
  OSGUARD_ASSIGN_OR_RETURN(uint32_t len, U32());
  return Bytes(len);
}

Result<std::string_view> ByteReader::Bytes(size_t n) {
  if (remaining() < n) {
    return TruncatedError(offset_, n, remaining());
  }
  std::string_view view = data_.substr(offset_, n);
  offset_ += n;
  return view;
}

void WriteValue(ByteWriter& w, const Value& value) {
  w.U8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNil:
      break;
    case ValueType::kInt:
      w.I64(*value.IfInt());
      break;
    case ValueType::kFloat:
      w.F64(*value.IfFloat());
      break;
    case ValueType::kBool:
      w.U8(*value.IfBool() ? 1 : 0);
      break;
    case ValueType::kString:
      w.Str(*value.IfString());
      break;
    case ValueType::kList: {
      const std::vector<Value>& items = *value.IfList();
      w.U32(static_cast<uint32_t>(items.size()));
      for (const Value& item : items) {
        WriteValue(w, item);
      }
      break;
    }
  }
}

Result<Value> ReadValue(ByteReader& r, int depth) {
  if (depth > 32) {
    return OutOfRangeError("value nesting exceeds depth 32 at offset " +
                           std::to_string(r.offset()));
  }
  OSGUARD_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNil:
      return Value();
    case ValueType::kInt: {
      OSGUARD_ASSIGN_OR_RETURN(int64_t v, r.I64());
      return Value(v);
    }
    case ValueType::kFloat: {
      OSGUARD_ASSIGN_OR_RETURN(double v, r.F64());
      return Value(v);
    }
    case ValueType::kBool: {
      OSGUARD_ASSIGN_OR_RETURN(uint8_t v, r.U8());
      return Value(v != 0);
    }
    case ValueType::kString: {
      OSGUARD_ASSIGN_OR_RETURN(std::string_view s, r.Str());
      return Value(std::string(s));
    }
    case ValueType::kList: {
      OSGUARD_ASSIGN_OR_RETURN(uint32_t count, r.U32());
      // Every element is at least one tag byte, so a count beyond the
      // remaining input is corrupt — reject before allocating.
      if (count > r.remaining()) {
        return OutOfRangeError("list count " + std::to_string(count) +
                               " exceeds remaining input at offset " +
                               std::to_string(r.offset()));
      }
      std::vector<Value> items;
      items.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        OSGUARD_ASSIGN_OR_RETURN(Value item, ReadValue(r, depth + 1));
        items.push_back(std::move(item));
      }
      return Value(std::move(items));
    }
  }
  return InvalidArgumentError("unknown value tag " + std::to_string(tag) + " at offset " +
                              std::to_string(r.offset() - 1));
}

uint32_t FieldReader::Count(const char* what) {
  uint32_t n = 0;
  U32(n);
  if (ok() && n > r_.remaining()) {
    Fail(std::string(what) + " count " + std::to_string(n) + " exceeds input");
  }
  return ok() ? n : 0;
}

void FieldReader::Fail(const std::string& message) {
  if (ok()) {
    status_ = InvalidArgumentError(std::string(context_) + ": " + message);
  }
}

}  // namespace osguard
