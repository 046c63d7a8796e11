// The one binary codec in src/ (DESIGN.md §14): execution
// plans (runtime/plan_io), job checkpoints (cluster/checkpoint) and the
// distribution manager's fetch envelopes all encode and decode through it.
//
//  * Writer puts fixed-width little-endian fields at a cursor into a byte
//    vector, overwriting what is already there and growing the vector only
//    past its end — so a pre-sized arena buffer is written in place, and
//    reserve(n) hands out room a payload generator fills directly.
//  * Reader is sticky-fail over a byte span: a read past the end clears
//    ok() and returns zeros, so a decoder walks the whole format and checks
//    ok() once. count() rejects any length field larger than the bytes left
//    could back, so no decoder allocates more than its input justifies.
//  * seal/open frame a body as [magic u32][version u16] body [crc32 u32],
//    the CRC covering everything before it; read_file/write_file move a
//    frame to and from disk (temp file + rename on write).
//
// Decoders built on these types return a Status and never throw on bad
// input.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace lobster::wire {

class Writer {
 public:
  /// Writes from offset 0 of `out`.
  explicit Writer(std::vector<std::byte>& out) : out_(out) {}

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void zeros(std::size_t n) { std::fill_n(reserve(n), n, std::byte{0}); }
  /// [u32 length][bytes].
  void str(std::string_view s);
  /// [u32 count][u32 value]...
  void u32s(const std::vector<std::uint32_t>& values) {
    u32(static_cast<std::uint32_t>(values.size()));
    for (const std::uint32_t v : values) u32(v);
  }

  /// Advances the cursor past `n` bytes and returns where they start, for
  /// callers that fill a payload in place.
  std::byte* reserve(std::size_t n) {
    if (out_.size() - pos_ < n) out_.resize(pos_ + n);
    std::byte* at = out_.data() + pos_;
    pos_ += n;
    return at;
  }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    std::byte* at = reserve(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) at[i] = static_cast<std::byte>(v >> (8 * i));
  }

  std::vector<std::byte>& out_;
  std::size_t pos_ = 0;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  /// [u32 length][bytes], the length bounded by what remains.
  std::string str();
  /// [u32 count][u32 value]..., the count bounded by what remains.
  void u32s(std::vector<std::uint32_t>& values) {
    values.resize(count(sizeof(std::uint32_t)));
    for (std::uint32_t& v : values) v = u32();
  }

  /// Reads a `Len`-wide element count and fails (returning 0) unless the
  /// bytes left hold at least that many elements of `elem_bytes` each.
  template <std::unsigned_integral Len = std::uint32_t>
  std::size_t count(std::size_t elem_bytes) {
    const Len n = get<Len>();
    if (n > remaining() / elem_bytes) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  /// The next `n` bytes, or an empty span (and ok() == false) when fewer
  /// remain.
  std::span<const std::byte> bytes(std::uint64_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    const auto out = bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return out;
  }

  void skip(std::size_t n) { (void)bytes(n); }

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  /// Every read succeeded and consumed the input exactly.
  bool done() const noexcept { return ok_ && pos_ == bytes_.size(); }

 private:
  template <std::unsigned_integral T>
  T get() {
    const auto at = bytes(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < at.size(); ++i) {
      v |= static_cast<T>(static_cast<T>(at[i]) << (8 * i));
    }
    return v;
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// CRC32 (IEEE, reflected) over a byte range — the frame trailer.
std::uint32_t crc32(std::span<const std::byte> bytes) noexcept;

/// [magic u32][version u16], then whatever `body(Writer&)` writes, then the
/// CRC32 of all of it.
template <typename Body>
std::vector<std::byte> seal(std::uint32_t magic, std::uint16_t version, Body&& body) {
  std::vector<std::byte> frame;
  Writer w(frame);
  w.u32(magic);
  w.u16(version);
  body(w);
  w.u32(crc32(frame));
  return frame;
}

/// Checks a sealed frame's length, CRC, magic and version, in that order,
/// and returns a Reader over its body; kCorrupt with a detail prefixed by
/// `what` otherwise.
Result<Reader> open(std::span<const std::byte> frame, std::uint32_t magic,
                    std::uint16_t version, const std::string& what);

/// Writes `path` + ".tmp" and renames it over `path`, so readers only ever
/// see a complete file. kInvalid on any I/O failure.
Status write_file(const std::string& path, std::span<const std::byte> bytes,
                  const std::string& what);

/// The whole file: kNotFound when it is missing or not a regular file,
/// kCorrupt on a short read.
Result<std::vector<std::byte>> read_file(const std::string& path, const std::string& what);

}  // namespace lobster::wire
