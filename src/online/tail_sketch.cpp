#include "online/tail_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "online/alias_table.h"

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

/// Exponential-race priority: E = -log(u) / w with u in (0, 1] hashed from
/// the tag. Smaller is more likely to survive; larger weight shrinks the
/// priority, biasing survival toward heavy items.
double race_priority(std::uint64_t tag, double weight) noexcept {
  const std::uint64_t bits = mix64(tag ^ 0x5851f42d4c957f2dULL) >> 11;
  double u = static_cast<double>(bits) * 0x1.0p-53;
  if (u == 0.0) u = 0x1.0p-53;
  const double w = (weight > 0.0 && std::isfinite(weight)) ? weight : 1.0;
  return -std::log(u) / w;
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

void TailSketch::insert(double value, std::uint64_t tag, double weight) {
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

  Item item{value, tag, race_priority(tag, weight)};
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
  // descending value order, so only the body values need sorting; walking
  // the top set backwards merges the two.
  const double body_pop =
      static_cast<double>(accepted_) - static_cast<double>(top_.size());
  const double body_w =
      body_.empty() ? 0.0 : body_pop / static_cast<double>(body_.size());
  std::vector<double> body;
  body.reserve(body_.size());
  for (const Item& it : body_) body.push_back(it.value);
  std::sort(body.begin(), body.end());

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

  const double body_pop =
      static_cast<double>(accepted_) - static_cast<double>(top_.size());
  const double body_w =
      body_.empty() ? 0.0 : body_pop / static_cast<double>(body_.size());
  std::vector<double> values;
  std::vector<double> weights;
  values.reserve(retained());
  weights.reserve(retained());
  for (const Item& it : top_) {
    values.push_back(it.value);
    weights.push_back(1.0);
  }
  for (const Item& it : body_) {
    values.push_back(it.value);
    weights.push_back(body_w);
  }
  const AliasTable table(weights);
  if (table.empty()) return out;
  out.reserve(max_n);
  for (std::size_t i = 0; i < max_n; ++i) out.push_back(values[table.draw(rng)]);
  return out;
}

}  // namespace fullweb::online
