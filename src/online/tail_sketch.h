// Mergeable bounded-memory sketch of a heavy-tailed positive sample.
//
// Retains two canonical item sets from an unbounded stream of positive
// values:
//
//  * the exact `top_k` largest order statistics (ties broken by the item
//    tag), which is everything the Hill estimator reads — so when the
//    configured tail fraction needs at most top_k order statistics, the
//    sketch's Hill plot is bit-identical to the batch one over the full
//    sample; and
//  * a bottom-m *priority sample* of the remaining "body": every item gets
//    a fixed priority -log(u) with u hashed from its identity tag (the
//    Efraimidis–Spira exponential race at unit weight, so the survivors
//    are a uniform sample), and the m smallest priorities survive.
//
// Both retained sets are pure functions of the set of items ever inserted:
// the k-largest and m-smallest selections are associative and commutative,
// priorities are computed from immutable per-item tags rather than drawn
// from mutable generator state, and no floating-point accumulator is
// carried (counts are integers; min/max are exact). merge(A, B) is
// therefore bit-exact associative AND commutative — merge-of-merges equals
// the flat build — which is what lets per-shard sketches combine in any
// order under core/analyze_fleet. The only precondition (shared with
// stats::MomentSummary) is that merged sketches were built over disjoint
// item sets, i.e. distinct (salt, seq) identities.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/result.h"
#include "support/rng.h"

namespace fullweb::online {

class TailSketch {
 public:
  /// One retained sample. `tag` is the item's stream identity (make_tag of
  /// the producer salt and a per-producer sequence number); `priority` is
  /// the exponential-race key, fixed at insert time.
  struct Item {
    double value = 0.0;
    std::uint64_t tag = 0;
    double priority = 0.0;
  };

  TailSketch() : TailSketch(512, 1024) {}
  TailSketch(std::size_t top_k, std::size_t body_capacity);

  /// Deterministic identity for the seq-th item of the stream salted with
  /// `salt`. Distinct (salt, seq) pairs give distinct-with-overwhelming-
  /// probability tags; shards use distinct salts so merged identities stay
  /// disjoint.
  [[nodiscard]] static std::uint64_t make_tag(std::uint64_t salt,
                                              std::uint64_t seq) noexcept;

  /// Insert a value. Non-finite or non-positive values are counted in
  /// rejected() and otherwise ignored — the tail estimators only ever read
  /// positives.
  void insert(double value, std::uint64_t tag);

  /// Fold `other` (built over disjoint identities, same capacities) into
  /// this sketch. Errors on capacity mismatch; bit-exact in any order.
  [[nodiscard]] support::Status merge(const TailSketch& other);

  [[nodiscard]] std::size_t top_k() const noexcept { return top_k_; }
  [[nodiscard]] std::size_t body_capacity() const noexcept {
    return body_capacity_;
  }
  /// Accepted (finite, positive) insertions.
  [[nodiscard]] std::uint64_t count() const noexcept { return accepted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::size_t retained() const noexcept {
    return top_.size() + body_.size();
  }
  /// Accepted items no longer represented by a retained sample.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return accepted_ - static_cast<std::uint64_t>(retained());
  }
  /// Exact extremes over every accepted value (0 when empty).
  [[nodiscard]] double min() const noexcept { return accepted_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return accepted_ ? max_ : 0.0; }

  /// The exact top order statistics, descending (top_values()[0] = X_(1)).
  [[nodiscard]] std::vector<double> top_values() const;
  /// Retained items for equality assertions and estimators: top set in
  /// descending (value, tag) order, body set in ascending (priority, tag)
  /// order.
  [[nodiscard]] std::span<const Item> top_items() const noexcept {
    return top_;
  }
  [[nodiscard]] std::span<const Item> body_items() const noexcept {
    return body_;
  }

  /// Weighted empirical quantiles over the retained set, one per entry of
  /// `qs` in the caller's order (each q clamped to [0, 1]): top items carry
  /// weight 1, body survivors each stand in for an equal share of the
  /// unretained body. The merged distribution is built once for all qs.
  /// Exact when dropped() == 0. NaN for a NaN q, and for every q when empty.
  [[nodiscard]] std::vector<double> quantiles(std::span<const double> qs) const;

  /// A value sample suitable for the batch distribution fitters
  /// (tail::llcd_fit): when nothing was dropped and the retained multiset
  /// fits max_n this is the exact sample (ascending), otherwise `max_n`
  /// with-replacement draws proportional to the per-item representation
  /// weights (1 per top item, the quantiles' body weight per body item),
  /// by Vose's alias method: one below(retained()) and one uniform() per
  /// draw. Consumes rng only on the sampled path; deterministic given the
  /// rng state.
  [[nodiscard]] std::vector<double> sample_values(std::size_t max_n,
                                                  support::Rng& rng) const;

 private:
  void body_compete(const Item& item);
  /// The share of the body population each body survivor stands for (0
  /// when the body is empty).
  [[nodiscard]] double body_weight() const noexcept;
  void rebuild_from(std::vector<Item>&& items);

  std::size_t top_k_;
  std::size_t body_capacity_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<Item> top_;   ///< sorted by (value desc, tag asc)
  std::vector<Item> body_;  ///< sorted by (priority asc, tag asc)
};

}  // namespace fullweb::online
