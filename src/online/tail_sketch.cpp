#include "online/tail_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "stats/descriptive.h"

namespace fullweb::online {

using support::Error;
using support::Status;

namespace {

/// SplitMix64 finalizer: the bit mixer behind both tag construction and the
/// priority hash. Stateless, so priorities are pure functions of identity.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Exponential-race priority: E = -log(u) with u in (0, 1] hashed from the
/// tag. Smaller is more likely to survive; every item has unit weight.
double race_priority(std::uint64_t tag) noexcept {
  const std::uint64_t bits = mix64(tag ^ 0x5851f42d4c957f2dULL) >> 11;
  double u = static_cast<double>(bits) * 0x1.0p-53;
  if (u == 0.0) u = 0x1.0p-53;
  return -std::log(u);
}

/// Total order for the top set: larger values first. The tag tiebreak makes
/// the k-largest selection a pure function of the item *set*, so equal
/// values at the selection boundary resolve identically in every build
/// order.
bool top_before(const TailSketch::Item& a, const TailSketch::Item& b) noexcept {
  if (a.value != b.value) return a.value > b.value;
  return a.tag < b.tag;
}

/// Total order for the body set: smallest priorities (= survivors) first.
bool body_before(const TailSketch::Item& a, const TailSketch::Item& b) noexcept {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.tag < b.tag;
}

}  // namespace

TailSketch::TailSketch(std::size_t top_k, std::size_t body_capacity)
    : top_k_(top_k == 0 ? 1 : top_k),
      body_capacity_(body_capacity) {
  top_.reserve(top_k_);
  body_.reserve(body_capacity_);
}

std::uint64_t TailSketch::make_tag(std::uint64_t salt,
                                   std::uint64_t seq) noexcept {
  return mix64(salt + 0x9e3779b97f4a7c15ULL * (seq + 1));
}

void TailSketch::insert(double value, std::uint64_t tag) {
  if (!(std::isfinite(value) && value > 0.0)) {
    ++rejected_;
    return;
  }
  if (accepted_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++accepted_;

  Item item{value, tag, race_priority(tag)};
  if (top_.size() < top_k_ || top_before(item, top_.back())) {
    auto pos = std::lower_bound(top_.begin(), top_.end(), item, top_before);
    top_.insert(pos, item);
    if (top_.size() <= top_k_) return;
    const Item demoted = top_.back();
    top_.pop_back();
    body_compete(demoted);
    return;
  }
  body_compete(item);
}

void TailSketch::body_compete(const Item& item) {
  if (body_capacity_ == 0) return;
  if (body_.size() >= body_capacity_ && !body_before(item, body_.back()))
    return;
  auto pos = std::lower_bound(body_.begin(), body_.end(), item, body_before);
  body_.insert(pos, item);
  if (body_.size() > body_capacity_) body_.pop_back();
}

void TailSketch::rebuild_from(std::vector<Item>&& items) {
  // k-largest into the top set, everyone else races for the body: the same
  // selection the incremental path performs, applied to the union at once.
  std::sort(items.begin(), items.end(), top_before);
  const std::size_t keep = std::min(top_k_, items.size());
  top_.assign(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(keep));
  std::sort(items.begin() + static_cast<std::ptrdiff_t>(keep), items.end(),
            body_before);
  const std::size_t body_keep =
      std::min(body_capacity_, items.size() - keep);
  body_.assign(items.begin() + static_cast<std::ptrdiff_t>(keep),
               items.begin() + static_cast<std::ptrdiff_t>(keep + body_keep));
}

Status TailSketch::merge(const TailSketch& other) {
  if (top_k_ != other.top_k_ || body_capacity_ != other.body_capacity_)
    return Error::invalid_argument(
        "TailSketch::merge: capacity mismatch between sketches");
  if (other.accepted_ > 0) {
    min_ = accepted_ ? std::min(min_, other.min_) : other.min_;
    max_ = accepted_ ? std::max(max_, other.max_) : other.max_;
  }
  accepted_ += other.accepted_;
  rejected_ += other.rejected_;

  std::vector<Item> pool;
  pool.reserve(retained() + other.retained());
  pool.insert(pool.end(), top_.begin(), top_.end());
  pool.insert(pool.end(), body_.begin(), body_.end());
  pool.insert(pool.end(), other.top_.begin(), other.top_.end());
  pool.insert(pool.end(), other.body_.begin(), other.body_.end());
  rebuild_from(std::move(pool));
  return {};
}

double TailSketch::body_weight() const noexcept {
  const double body_pop =
      static_cast<double>(accepted_) - static_cast<double>(top_.size());
  return body_.empty() ? 0.0 : body_pop / static_cast<double>(body_.size());
}

std::vector<double> TailSketch::top_values() const {
  std::vector<double> out;
  out.reserve(top_.size());
  for (const Item& it : top_) out.push_back(it.value);
  return out;
}

std::vector<double> TailSketch::quantiles(std::span<const double> qs) const {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> out(qs.size(), kNaN);
  if (accepted_ == 0) return out;

  // Each result is the first value whose running weight reaches q * count,
  // so visit the targets in ascending order during one walk of the CDF.
  std::vector<std::pair<double, std::size_t>> targets;  // (target, index)
  targets.reserve(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i)
    if (!std::isnan(qs[i]))
      targets.emplace_back(
          std::clamp(qs[i], 0.0, 1.0) * static_cast<double>(accepted_), i);
  if (targets.empty()) return out;
  std::sort(targets.begin(), targets.end());

  // The retained sets form one ascending weighted empirical distribution,
  // ordered by (value, weight). Each body survivor stands in for an equal
  // share of the unretained body population. The top set is already in
  // descending value order, so only the body values need sorting (by the
  // radix sort: they are positive and finite, so it orders them as
  // std::sort would); walking the top set backwards merges the two.
  const double body_w = body_weight();
  std::vector<double> body;
  body.reserve(body_.size());
  for (const Item& it : body_) body.push_back(it.value);
  stats::radix_sort(body);

  auto top = top_.rbegin();
  auto b = body.begin();
  std::size_t next = 0;
  double cum = 0.0;
  double v = 0.0;
  while (next < targets.size() && (top != top_.rend() || b != body.end())) {
    const bool take_top =
        b == body.end() ||
        (top != top_.rend() &&
         std::pair(top->value, 1.0) <= std::pair(*b, body_w));
    if (take_top) {
      v = (top++)->value;
      cum += 1.0;
    } else {
      v = *b++;
      cum += body_w;
    }
    for (; next < targets.size() && cum >= targets[next].first; ++next)
      out[targets[next].second] = v;
  }
  // Targets the summed weight never reached take the largest value, which
  // is where the walk ended.
  for (; next < targets.size(); ++next) out[targets[next].second] = v;
  return out;
}

std::vector<double> TailSketch::sample_values(std::size_t max_n,
                                              support::Rng& rng) const {
  std::vector<double> out;
  if (accepted_ == 0 || max_n == 0) return out;

  if (dropped() == 0 && retained() <= max_n) {
    // The sketch holds the whole sample and it fits the request: hand it
    // back exactly (ascending, so the output is independent of internal
    // set layout).
    out.reserve(retained());
    for (const Item& it : top_) out.push_back(it.value);
    for (const Item& it : body_) out.push_back(it.value);
    std::sort(out.begin(), out.end());
    return out;
  }

  // Vose's alias table over one weight per retained item, 1 for each top
  // item and then body_w for each body item, built from the two classes.
  // The total is summed in that order (the top's ones sum exactly), and
  // each class has one scaled probability. Both worklists start as index
  // ranges, ascending and popped from the back: the classes scaled below 1
  // on the small list, the rest on the large one. A pairing returns its
  // donor to the top of one list, where the next pairing pops it first, so
  // one returned index at a time is all that leaves the ranges. Leftovers
  // keep probability 1. Column k draws top_[k] for k < t, else body_[k - t].
  const std::size_t t = top_.size();
  const std::size_t n = retained();
  const double body_w = body_weight();
  double total = static_cast<double>(t);
  for (std::size_t i = t; i < n; ++i) total += body_w;
  const double scaled_top = 1.0 / total * static_cast<double>(n);
  const double scaled_body = body_w / total * static_cast<double>(n);
  const auto scaled = [&](std::size_t k) {
    return k < t ? scaled_top : scaled_body;
  };
  const std::size_t small_lo = scaled_top < 1.0 ? 0 : t;
  std::size_t small_hi = scaled_body < 1.0 ? n : t;
  const std::size_t large_lo = scaled_top < 1.0 ? t : 0;
  std::size_t large_hi = scaled_body < 1.0 ? t : n;
  enum class List { kNone, kSmall, kLarge } donor_on = List::kNone;
  std::size_t donor = 0;
  double donor_scaled = 0.0;

  struct Column {
    double prob;
    std::size_t alias;
  };
  std::vector<Column> table(n);
  for (std::size_t k = 0; k < n; ++k) table[k] = {1.0, k};
  while ((donor_on == List::kSmall || small_lo < small_hi) &&
         (donor_on == List::kLarge || large_lo < large_hi)) {
    const bool small_donor = donor_on == List::kSmall;
    const std::size_t s = small_donor ? donor : --small_hi;
    const double ps = small_donor ? donor_scaled : scaled(s);
    const bool large_donor = donor_on == List::kLarge;
    const std::size_t l = large_donor ? donor : --large_hi;
    const double pl = large_donor ? donor_scaled : scaled(l);
    table[s] = {ps, l};
    donor = l;
    donor_scaled = (pl + ps) - 1.0;
    donor_on = donor_scaled < 1.0 ? List::kSmall : List::kLarge;
  }

  out.reserve(max_n);
  for (std::size_t i = 0; i < max_n; ++i) {
    const auto col = static_cast<std::size_t>(rng.below(n));
    const double u = rng.uniform();
    const std::size_t k = u < table[col].prob ? col : table[col].alias;
    out.push_back(k < t ? top_[k].value : body_[k - t].value);
  }
  return out;
}

}  // namespace fullweb::online
