#include "core/campaign_io.hpp"

#include "core/campaign_fields.hpp"
#include "core/campaign_hash.hpp"
#include "net/serialization.hpp"
#include "util/units.hpp"

namespace rdsim::core {

namespace {

constexpr std::uint32_t kMagic = 0x52444331;  // "RDC1"
// v2: opt_block presence bytes for the mitigation config/summary fields.
constexpr std::uint32_t kVersion = 2;

/// Archive writing the visited fields through a net::ByteWriter.
struct WriteArchive {
  net::ByteWriter& w;

  void f64(const double& v) { w.f64(v); }
  template <typename Q>
  void qty(const Q& v) {
    w.f64(v.value());  // typed quantities serialize as their raw double
  }
  void u32(const std::uint32_t& v) { w.u32(v); }
  void u64(const std::uint64_t& v) { w.u64(v); }
  void i32(const int& v) { w.i32(v); }
  void sz(const std::size_t& v) { w.u64(static_cast<std::uint64_t>(v)); }
  void b(const bool& v) { w.u8(v ? 1 : 0); }
  void str(const std::string& s) { w.str(s); }
  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn fn) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) fn(*this, e);
  }
  /// Conditional block. Unlike the hash archive (which must stay silent when
  /// disabled, to preserve pre-existing digests) the wire format always
  /// carries a presence byte — that is the v1 → v2 format change.
  template <typename Fn>
  void opt_block(const bool& flag, Fn fn) {
    w.u8(flag ? 1 : 0);
    if (flag) fn(*this);
  }
};

/// Archive reading the visited fields back out of a net::ByteReader.
struct ReadArchive {
  net::ByteReader& r;
  /// Canonical-form violations (e.g. a bool byte that is neither 0 nor 1).
  /// The reader's own ok() only tracks truncation; a non-canonical byte
  /// would otherwise decode to a value that re-hashes consistently, letting
  /// a corrupt blob slip past the embedded-hash check.
  bool canonical{true};

  void f64(double& v) { v = r.f64(); }
  template <typename Q>
  void qty(Q& v) {
    v = units::from_raw<Q>(r.f64());
  }
  void u32(std::uint32_t& v) { v = r.u32(); }
  void u64(std::uint64_t& v) { v = r.u64(); }
  void i32(int& v) { v = r.i32(); }
  void sz(std::size_t& v) { v = static_cast<std::size_t>(r.u64()); }
  void b(bool& v) {
    const std::uint8_t raw = r.u8();
    if (raw > 1) canonical = false;
    v = raw != 0;
  }
  void str(std::string& s) { s = r.str(); }
  template <typename T, typename Fn>
  void vec(std::vector<T>& v, Fn fn) {
    const std::uint32_t n = r.u32();
    v.clear();
    // Stop on the first truncated element instead of trusting a (possibly
    // corrupt) length header with a huge up-front reserve.
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      T e{};
      fn(*this, e);
      v.push_back(std::move(e));
    }
  }
  template <typename Fn>
  void opt_block(bool& flag, Fn fn) {
    const std::uint8_t raw = r.u8();
    if (raw > 1) canonical = false;
    flag = raw != 0;
    if (flag) fn(*this);
  }
};

}  // namespace

std::vector<std::uint8_t> serialize_campaign(const CampaignResult& campaign) {
  net::ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(check::campaign_hash(campaign));
  WriteArchive ar{w};
  detail::campaign_fields(ar, campaign);
  return w.take();
}

std::optional<CampaignResult> deserialize_campaign(const std::uint8_t* data,
                                                   std::size_t size) {
  net::ByteReader r{data, size};
  if (r.u32() != kMagic || r.u32() != kVersion) return std::nullopt;
  const std::uint64_t stored_hash = r.u64();
  CampaignResult campaign;
  ReadArchive ar{r};
  detail::campaign_fields(ar, campaign);
  if (!r.ok() || !ar.canonical || r.remaining() != 0) return std::nullopt;
  if (check::campaign_hash(campaign) != stored_hash) return std::nullopt;
  return campaign;
}

std::optional<CampaignResult> deserialize_campaign(const std::vector<std::uint8_t>& blob) {
  return deserialize_campaign(blob.data(), blob.size());
}

}  // namespace rdsim::core
