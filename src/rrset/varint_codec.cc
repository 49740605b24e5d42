#include "rrset/varint_codec.h"

namespace opim {

namespace {

/// Payload byte length (1..4) of one group-varint value.
inline uint32_t PayloadLen(uint32_t v) {
  if (v < (1u << 8)) return 1;
  if (v < (1u << 16)) return 2;
  if (v < (1u << 24)) return 3;
  return 4;
}

void AppendVarint32(uint32_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80u) {
    out->push_back(static_cast<uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// The i-th stored value: the first id raw, then gap-minus-one deltas.
inline uint32_t StoredValue(std::span<const NodeId> sorted, size_t i) {
  return i == 0 ? sorted[0] : sorted[i] - sorted[i - 1] - 1;
}

}  // namespace

size_t EncodeRRMembers(std::span<const NodeId> sorted,
                       std::vector<uint8_t>* out) {
  const size_t start = out->size();
  const size_t n = sorted.size();
  AppendVarint32(static_cast<uint32_t>(n), out);
  size_t i = 0;
  while (i < n) {
    const size_t group = n - i < 4 ? n - i : 4;
    const size_t ctrl_pos = out->size();
    out->push_back(0);
    uint8_t ctrl = 0;
    for (size_t j = 0; j < group; ++j) {
      const uint32_t d = StoredValue(sorted, i + j);
      const uint32_t len = PayloadLen(d);
      ctrl |= static_cast<uint8_t>((len - 1) << (2 * j));
      for (uint32_t b = 0; b < len; ++b) {
        out->push_back(static_cast<uint8_t>(d >> (8 * b)));
      }
    }
    (*out)[ctrl_pos] = ctrl;
    i += group;
  }
  return out->size() - start;
}

Status DecodeRRMembersChecked(std::span<const uint8_t> bytes,
                              uint32_t max_value, std::vector<NodeId>* out) {
  out->clear();
  const uint8_t* p = bytes.data();
  const uint8_t* end = p + bytes.size();

  // Count header: LEB128 with explicit bounds and overflow checks.
  uint64_t count = 0;
  unsigned shift = 0;
  while (true) {
    if (p == end) return Status::InvalidArgument("varint: truncated count");
    const uint8_t byte = *p++;
    if (shift >= 32 || (shift == 28 && (byte & 0x7Fu) > 0x0Fu)) {
      return Status::InvalidArgument("varint: count overflows uint32");
    }
    count |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) break;
    shift += 7;
  }
  if (count > max_value) {
    // Members are distinct ids < max_value, so more than max_value of
    // them cannot round-trip; reject before reserving absurd memory.
    return Status::InvalidArgument("varint: count exceeds id universe");
  }

  out->reserve(static_cast<size_t>(count));
  uint64_t remaining = count;
  uint32_t x = 0;
  bool first = true;
  while (remaining > 0) {
    const uint32_t group = remaining < 4 ? static_cast<uint32_t>(remaining) : 4;
    if (p == end) return Status::InvalidArgument("varint: truncated group");
    const uint8_t ctrl = *p++;
    for (uint32_t i = 0; i < group; ++i) {
      const uint32_t len = ((ctrl >> (2 * i)) & 3u) + 1;
      if (static_cast<size_t>(end - p) < len) {
        return Status::InvalidArgument("varint: truncated payload");
      }
      uint32_t d = 0;
      for (uint32_t b = 0; b < len; ++b) {
        d |= static_cast<uint32_t>(p[b]) << (8 * b);
      }
      p += len;
      if (first) {
        x = d;
        first = false;
      } else {
        const uint64_t next = static_cast<uint64_t>(x) + d + 1;
        if (next > 0xFFFFFFFFull) {
          return Status::InvalidArgument("varint: id overflows uint32");
        }
        x = static_cast<uint32_t>(next);
      }
      if (x >= max_value) {
        return Status::InvalidArgument("varint: id out of range");
      }
      out->push_back(static_cast<NodeId>(x));
    }
    remaining -= group;
  }
  if (p != end) {
    return Status::InvalidArgument("varint: trailing bytes after encoding");
  }
  return Status::OK();
}

}  // namespace opim
