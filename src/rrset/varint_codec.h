// Group-varint delta codec for sorted RR-set member lists.
//
// An RR set is a strictly ascending list of node ids. The encoding is
//   varint(count) · group-varint(v_0, d_1, ..., d_{count-1})
// where v_0 is the first id and d_i = x_i - x_{i-1} - 1 (ids are distinct,
// so every gap is >= 1 and the stored delta saves one bit of entropy).
// Group varint packs values four at a time: one control byte holding four
// 2-bit (byte-length - 1) fields, followed by the 1..4 little-endian
// payload bytes of each value. A trailing group of 1-3 values keeps the
// control byte with its unused fields zero.
//
// The fast decoder reads each payload with one unaligned 4-byte load and
// masks to the encoded length, so callers must guarantee
// kVarintDecodeSlackBytes readable bytes past the end of every encoding
// (RRCollection keeps that slack zero-filled at the tail of its pool).
// DecodeRRMembersChecked is the trust-boundary variant: it never reads
// past the given span and returns Status instead of UB on corrupt input.

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "support/status.h"

namespace opim {

/// Readable slack the fast decoder needs past the last encoded byte.
inline constexpr size_t kVarintDecodeSlackBytes = 3;

/// Appends the encoding of `sorted` (strictly ascending ids) to `*out`.
/// Returns the number of bytes appended.
size_t EncodeRRMembers(std::span<const NodeId> sorted,
                       std::vector<uint8_t>* out);

namespace varint_internal {

inline uint32_t LoadLE32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));  // unaligned load; x86 and arm64 are LE
  return v;
}

/// Masks keeping the low 1..4 bytes of an unaligned 4-byte load.
inline constexpr uint32_t kLenMask[4] = {0xFFu, 0xFFFFu, 0xFFFFFFu,
                                         0xFFFFFFFFu};

}  // namespace varint_internal

/// Reads a LEB128 uint32 (the count header) and advances `*p`.
inline uint32_t DecodeVarint32(const uint8_t** p) {
  const uint8_t* q = *p;
  uint32_t v = *q & 0x7Fu;
  unsigned shift = 7;
  while (*q & 0x80u) {
    ++q;
    v |= static_cast<uint32_t>(*q & 0x7Fu) << shift;
    shift += 7;
  }
  *p = q + 1;
  return v;
}

/// Decoded member count of the encoding at `p` (does not decode members).
inline uint32_t DecodedRRMemberCount(const uint8_t* p) {
  return DecodeVarint32(&p);
}

/// Calls `fn(NodeId)` for each member, in ascending order. `p` points at
/// the count header; requires kVarintDecodeSlackBytes readable past the
/// encoding. Returns one past the last encoded byte.
template <typename Fn>
inline const uint8_t* DecodeRRMembersForEach(const uint8_t* p, Fn&& fn) {
  using varint_internal::kLenMask;
  using varint_internal::LoadLE32;
  const uint32_t count = DecodeVarint32(&p);
  if (count == 0) return p;
  // Peel the first group: its leading value is absolute (not a gap), so
  // handling it here keeps every loop below a branch-free accumulate.
  // Within a group the control byte shifts right two bits per value —
  // cheaper than re-indexing with a variable shift distance.
  const uint32_t head = count < 4 ? count : 4;
  uint32_t ctrl = *p++;
  uint32_t len = ctrl & 3u;  // payload bytes - 1
  uint32_t x = LoadLE32(p) & kLenMask[len];
  p += len + 1;
  fn(static_cast<NodeId>(x));
  for (uint32_t i = 1; i < head; ++i) {
    ctrl >>= 2;
    len = ctrl & 3u;
    x += (LoadLE32(p) & kLenMask[len]) + 1;
    p += len + 1;
    fn(static_cast<NodeId>(x));
  }
  uint32_t remaining = count - head;
  while (remaining >= 4) {
    ctrl = *p++;
    for (uint32_t i = 0; i < 4; ++i) {
      len = ctrl & 3u;
      ctrl >>= 2;
      x += (LoadLE32(p) & kLenMask[len]) + 1;
      p += len + 1;
      fn(static_cast<NodeId>(x));
    }
    remaining -= 4;
  }
  if (remaining > 0) {
    ctrl = *p++;
    do {
      len = ctrl & 3u;
      ctrl >>= 2;
      x += (LoadLE32(p) & kLenMask[len]) + 1;
      p += len + 1;
      fn(static_cast<NodeId>(x));
    } while (--remaining > 0);
  }
  return p;
}

/// Bounds- and monotonicity-checked decode for untrusted bytes: never
/// reads outside `bytes`, validates ids are strictly ascending and
/// < `max_value`, and that the encoding ends exactly at `bytes.end()`.
/// On success fills `*out` (cleared first).
Status DecodeRRMembersChecked(std::span<const uint8_t> bytes,
                              uint32_t max_value, std::vector<NodeId>* out);

}  // namespace opim
