// Direct-mapped exact memo: the one cache design behind the libm-backed
// values the channel and the sniffers recompute millions of times per run.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace wlan::phy {

/// An empty slot's key bits: a signalling-NaN payload no memoized argument
/// carries (arithmetic yields only quiet NaNs), so an empty slot never
/// aliases a live key and no valid flag is needed.
inline constexpr std::uint64_t kEmptyKeyBits = 0x7FF4DEADBEEFDEADULL;

/// Direct-mapped memo of a pure function, keyed on its exact arguments.
///
/// `Key` holds the arguments (doubles by bit pattern), default-constructs
/// to the empty key, compares with ==, and supplies `slot_hash()` (the slot
/// is its top log2(capacity) bits) and `eval()`.  A hit thus returns the
/// identical double a direct call would: capacity moves only the hit rate,
/// never an output byte.
///
/// A sweep builds hundreds of memos and a unit-test fixture touches a few
/// hundred keys, so the table starts at 2^log2_entries and grows 4x (up to
/// 2^log2_entries_cap, discarding its entries) once the misses since the
/// last resize reach four times its size: a deterministic, size-driven
/// policy.  Not thread-safe: own one per channel or sniffer.
template <class Key>
class ExactMemo {
 public:
  ExactMemo(unsigned log2_entries, unsigned log2_entries_cap)
      : log2_(log2_entries), log2_cap_(log2_entries_cap),
        entries_(std::size_t{1} << log2_entries) {}

  double operator()(const Key& key) {
    Entry* e = slot(key);
    if (e->key == key) {
      ++hits_;
      return e->value;
    }
    ++evals_;
    if (log2_ < log2_cap_ &&
        ++misses_since_resize_ >= (entries_.size() << 2)) {
      ++resizes_;
      log2_ = log2_ + 2 > log2_cap_ ? log2_cap_ : log2_ + 2;
      entries_.assign(std::size_t{1} << log2_, Entry{});
      misses_since_resize_ = 0;
      e = slot(key);
    }
    e->key = key;
    e->value = key.eval();
    return e->value;
  }

  /// Current table size; tests pin the growth policy with this.
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

  // Work counters: exact-key hits, full evaluations (the libm path) and
  // table resizes.  Harvested into obs::Metrics once per run.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t evals() const { return evals_; }
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }

 private:
  struct Entry {
    Key key;
    double value = 0.0;
  };

  Entry* slot(const Key& key) {
    return &entries_[key.slot_hash() >> (64 - log2_)];
  }

  unsigned log2_;
  unsigned log2_cap_;
  std::uint64_t misses_since_resize_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t evals_ = 0;
  std::uint64_t resizes_ = 0;
  std::vector<Entry> entries_;
};

/// The argument of a unary conversion `Fn` as an ExactMemo key; implicit
/// from double, so an `ExactMemo<UnaryKey<Fn>>` is called like Fn itself.
template <double (*Fn)(double)>
struct UnaryKey {
  std::uint64_t bits = kEmptyKeyBits;

  UnaryKey() = default;
  UnaryKey(double x) : bits(std::bit_cast<std::uint64_t>(x)) {}

  bool operator==(const UnaryKey&) const = default;
  [[nodiscard]] std::uint64_t slot_hash() const {
    return bits * 0x9E3779B97F4A7C15ULL;
  }
  [[nodiscard]] double eval() const { return Fn(std::bit_cast<double>(bits)); }
};

}  // namespace wlan::phy
