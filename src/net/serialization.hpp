// Little-endian byte serialization for protocol messages.
//
// Deliberately tiny: fixed-width integers, doubles, strings and blobs.
// Readers are bounds-checked and report truncation instead of crashing,
// because the corrupt qdisc can hand us damaged bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rdsim::net {

/// Writes through a cursor into storage that is already sized: each field
/// is one memcpy, and the buffer only grows (geometrically) when a write
/// would pass its end. A leased buffer is sized to its whole capacity up
/// front, so framing a packet into a pooled buffer never reallocates; the
/// unwritten tail is trimmed off by data() and take().
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Reuse a leased buffer (e.g. from a PayloadPool): keeps its capacity,
  /// starts writing from offset zero.
  explicit ByteWriter(std::vector<std::uint8_t>&& reuse) : buf_{std::move(reuse)} {
    buf_.resize(buf_.capacity());
  }

  void u8(std::uint8_t v) {
    if (pos_ == buf_.size()) grow(1);
    buf_[pos_++] = v;
  }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i32(std::int32_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    append(b.data(), b.size());
  }
  /// Append raw bytes without a length prefix.
  void raw(const std::uint8_t* p, std::size_t n) { append(p, n); }

  /// The bytes written so far (the buffer, trimmed to the cursor).
  const std::vector<std::uint8_t>& data() {
    buf_.resize(pos_);
    return buf_;
  }
  /// Hand over the bytes written so far; the writer is left empty.
  std::vector<std::uint8_t> take() {
    buf_.resize(pos_);
    pos_ = 0;
    return std::move(buf_);
  }
  std::size_t size() const { return pos_; }

 private:
  void append(const void* p, std::size_t n) {
    if (n == 0) return;  // p may be null for an empty blob
    if (buf_.size() - pos_ < n) grow(n);
    std::memcpy(buf_.data() + pos_, p, n);
    pos_ += n;
  }
  /// Make room for `n` more bytes past the cursor: first the capacity left
  /// by a trim, then at least double it. Kept out of line: it is the cold
  /// path, and inlined into every field write it also trips a false GCC 12
  /// -O3 -Wmaybe-uninitialized in code that merely shares a unit with one.
  [[gnu::noinline]] void grow(std::size_t n) {
    const std::size_t need = pos_ + n;
    buf_.resize(need <= buf_.capacity()
                    ? buf_.capacity()
                    : std::max({need, 2 * buf_.capacity(), kMinGrowth}));
  }

  static constexpr std::size_t kMinGrowth = 64;

  std::vector<std::uint8_t> buf_;
  std::size_t pos_{0};  ///< write cursor; buf_[pos_, size) is unwritten
};

class ByteReader {
 public:
  /// Empty view; every read fails with ok() == false.
  ByteReader() : buf_{nullptr}, size_{0} {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_{buf.data()}, size_{buf.size()} {}
  ByteReader(const std::uint8_t* data, std::size_t size) : buf_{data}, size_{size} {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  double f64() { return get<double>(); }

  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(buf_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> bytes() {
    const auto view = bytes_view();
    return {view.begin(), view.end()};
  }

  /// Length-prefixed blob viewed in place: no copy, valid only while the
  /// underlying buffer lives. Empty (and ok() false) on truncation.
  std::span<const std::uint8_t> bytes_view() {
    const std::uint32_t n = u32();
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    const std::span<const std::uint8_t> view{buf_ + pos_, n};
    pos_ += n;
    return view;
  }

 private:
  template <typename T>
  T get() {
    T v{};
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return v;
    }
    std::memcpy(&v, buf_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_{0};
  bool ok_{true};
};

}  // namespace rdsim::net
