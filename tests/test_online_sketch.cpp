// Property suite for the online layer's mergeable state: the tail sketch's
// merge laws must hold BIT-EXACTLY (merge(A,B) == merge(B,A),
// merge-of-merges == flat build, at every split point of a stream), the
// subsample draws must be a pure function of the retained sets and the rng
// state, and the canonical oldest-to-newest moment-window fold must be
// chunking-invariant. These are the invariants that let per-shard sketches
// combine in any order under core/analyze_fleet and make OnlineAnalyzer
// snapshots independent of chunk placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "online/tail_sketch.h"
#include "stats/prefix_moments.h"
#include "support/rng.h"
#include "tail/hill.h"

namespace fullweb::online {
namespace {

/// Bitwise item-set equality: value, tag, AND priority must match.
void expect_identical(const TailSketch& a, const TailSketch& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.rejected(), b.rejected());
  EXPECT_EQ(a.retained(), b.retained());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  ASSERT_EQ(a.top_items().size(), b.top_items().size());
  for (std::size_t i = 0; i < a.top_items().size(); ++i) {
    EXPECT_EQ(a.top_items()[i].value, b.top_items()[i].value) << "top " << i;
    EXPECT_EQ(a.top_items()[i].tag, b.top_items()[i].tag) << "top " << i;
    EXPECT_EQ(a.top_items()[i].priority, b.top_items()[i].priority);
  }
  ASSERT_EQ(a.body_items().size(), b.body_items().size());
  for (std::size_t i = 0; i < a.body_items().size(); ++i) {
    EXPECT_EQ(a.body_items()[i].value, b.body_items()[i].value) << "body " << i;
    EXPECT_EQ(a.body_items()[i].tag, b.body_items()[i].tag) << "body " << i;
    EXPECT_EQ(a.body_items()[i].priority, b.body_items()[i].priority);
  }
}

/// Pareto(alpha)-ish positive values with a deterministic identity stream.
std::vector<double> pareto_values(std::size_t n, double alpha,
                                  std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(std::pow(rng.uniform_pos(), -1.0 / alpha));
  return xs;
}

TailSketch build(const std::vector<double>& xs, std::uint64_t salt,
                 std::size_t first_seq, std::size_t count, std::size_t top_k,
                 std::size_t body) {
  TailSketch s(top_k, body);
  for (std::size_t i = 0; i < count; ++i)
    s.insert(xs[first_seq + i], TailSketch::make_tag(salt, first_seq + i));
  return s;
}

TEST(TailSketch, MergeIsCommutativeBitExact) {
  const auto xs = pareto_values(3000, 1.3, 7);
  const std::uint64_t salt = 99;
  TailSketch a = build(xs, salt, 0, 1500, 64, 128);
  TailSketch b = build(xs, salt, 1500, 1500, 64, 128);

  TailSketch ab = a;
  ASSERT_TRUE(ab.merge(b).ok());
  TailSketch ba = b;
  ASSERT_TRUE(ba.merge(a).ok());
  expect_identical(ab, ba);
}

TEST(TailSketch, MergeOfMergesEqualsFlatBuildAtEverySplit) {
  // A small stream split at EVERY boundary: sketch(prefix) + sketch(suffix)
  // must reproduce the flat single-pass sketch bit for bit. Capacities are
  // tiny relative to n so both the top-k eviction and the body
  // priority-race drop paths are exercised at most split points.
  const std::size_t n = 160;
  const auto xs = pareto_values(n, 1.1, 11);
  const std::uint64_t salt = 5;
  const TailSketch flat = build(xs, salt, 0, n, 8, 12);
  for (std::size_t cut = 0; cut <= n; ++cut) {
    TailSketch left = build(xs, salt, 0, cut, 8, 12);
    const TailSketch right = build(xs, salt, cut, n - cut, 8, 12);
    ASSERT_TRUE(left.merge(right).ok());
    expect_identical(flat, left);
  }
}

TEST(TailSketch, FourWayMergeGroupingsAgree) {
  const std::size_t n = 2000;
  const auto xs = pareto_values(n, 1.5, 3);
  const std::uint64_t salt = 17;
  std::vector<TailSketch> parts;
  for (std::size_t i = 0; i < 4; ++i)
    parts.push_back(build(xs, salt, i * 500, 500, 32, 64));
  const TailSketch flat = build(xs, salt, 0, n, 32, 64);

  // ((0+1)+(2+3)) — balanced tree.
  TailSketch t01 = parts[0], t23 = parts[2];
  ASSERT_TRUE(t01.merge(parts[1]).ok());
  ASSERT_TRUE(t23.merge(parts[3]).ok());
  ASSERT_TRUE(t01.merge(t23).ok());
  expect_identical(flat, t01);

  // (3+(2+(1+0))) — reversed chain.
  TailSketch chain = parts[3];
  TailSketch inner = parts[2];
  TailSketch inner2 = parts[1];
  ASSERT_TRUE(inner2.merge(parts[0]).ok());
  ASSERT_TRUE(inner.merge(inner2).ok());
  ASSERT_TRUE(chain.merge(inner).ok());
  expect_identical(flat, chain);
}

TEST(TailSketch, MergeRejectsCapacityMismatch) {
  TailSketch a(8, 8), b(8, 16), c(16, 8);
  EXPECT_FALSE(a.merge(b).ok());
  EXPECT_FALSE(a.merge(c).ok());
}

TEST(TailSketch, TopSetIsExactOrderStatisticsAndHillMatchesBatch) {
  const std::size_t n = 2000;
  const auto xs = pareto_values(n, 1.3, 21);
  // k_max = floor(0.15 * 2000) = 300, so top_k = 400 >= k_max + 1 retains
  // every order statistic the Hill plot reads: bit-identical plots.
  TailSketch s(400, 64);
  for (std::size_t i = 0; i < n; ++i)
    s.insert(xs[i], TailSketch::make_tag(1, i));

  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const auto top = s.top_values();
  ASSERT_EQ(top.size(), 400u);
  for (std::size_t i = 0; i < top.size(); ++i) EXPECT_EQ(top[i], sorted[i]);

  const auto batch = tail::hill_plot(xs);
  const auto sketch_plot = tail::hill_plot_from_top(top, s.count());
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(sketch_plot.ok());
  ASSERT_EQ(batch.value().alpha.size(), sketch_plot.value().alpha.size());
  for (std::size_t i = 0; i < batch.value().alpha.size(); ++i)
    EXPECT_EQ(batch.value().alpha[i], sketch_plot.value().alpha[i]) << i;

  const auto be = tail::hill_estimate(xs);
  const auto se = tail::hill_estimate_from_plot(sketch_plot.value());
  ASSERT_TRUE(be.ok());
  ASSERT_TRUE(se.ok());
  EXPECT_EQ(be.value().alpha, se.value().alpha);
  EXPECT_EQ(be.value().k_low, se.value().k_low);
  EXPECT_EQ(be.value().k_high, se.value().k_high);
  EXPECT_EQ(be.value().stabilized, se.value().stabilized);
}

TEST(TailSketch, QuantilesExactWhenNothingDropped) {
  TailSketch s(16, 200);
  for (std::size_t i = 1; i <= 100; ++i)
    s.insert(static_cast<double>(i), TailSketch::make_tag(2, i));
  EXPECT_EQ(s.dropped(), 0u);
  const auto q = s.quantiles(std::vector<double>{0.5, 0.99, 1.0});
  EXPECT_EQ(q, (std::vector<double>{50.0, 99.0, 100.0}));
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);

  support::Rng rng(1);
  const auto sample = s.sample_values(1000, rng);
  ASSERT_EQ(sample.size(), 100u);  // exact path: the whole multiset
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(sample[i], static_cast<double>(i + 1));
}

/// The per-q definition quantiles() must reproduce: sort the retained set as
/// (value, weight) pairs and return the first value whose running weight
/// reaches q * count (the largest value when none does).
double reference_quantile(const TailSketch& s, double q) {
  const double body_w =
      s.body_items().empty()
          ? 0.0
          : (static_cast<double>(s.count()) -
             static_cast<double>(s.top_items().size())) /
                static_cast<double>(s.body_items().size());
  std::vector<std::pair<double, double>> cdf;
  for (const auto& it : s.top_items()) cdf.emplace_back(it.value, 1.0);
  for (const auto& it : s.body_items()) cdf.emplace_back(it.value, body_w);
  std::sort(cdf.begin(), cdf.end());
  const double target =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(s.count());
  double cum = 0.0;
  for (const auto& [v, w] : cdf) {
    cum += w;
    if (cum >= target) return v;
  }
  return cdf.back().first;
}

TEST(TailSketch, QuantilesMatchReferenceWalkAtEverySize) {
  // Sizes drawn from 1..4 tie heavily, so values recur across the top and
  // body tiers. Growing the stream one item at a time covers sketches that
  // retain everything (body weight 1) and ones whose body survivors stand
  // in for dropped items (weight > 1). That weight is count / body size in
  // floating point, so the summed weight can fall just short of q * count
  // at q near 1; the reference then answers with the largest value, and so
  // must quantiles.
  support::Rng rng(41);
  std::vector<double> xs(400);
  for (auto& x : xs)
    x = std::min(std::floor(std::pow(rng.uniform_pos(), -1.0 / 1.2)), 4.0);
  std::size_t tied_across_tiers = 0, with_drops = 0;
  for (std::size_t n = 1; n <= xs.size(); ++n) {
    const TailSketch s = build(xs, 4, 0, n, 8, 24);
    std::vector<double> qs;
    for (int i = 0; i <= 100; ++i) qs.push_back(i / 100.0);
    // Targets q * count = k: whole running weights wherever weight is 1.
    for (std::size_t k = 1; k <= 8; ++k)
      qs.push_back(static_cast<double>(k) / static_cast<double>(n));
    qs.push_back(-2.0);  // clamps to q = 0
    const auto got = s.quantiles(qs);
    ASSERT_EQ(got.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i)
      ASSERT_EQ(got[i], reference_quantile(s, qs[i]))
          << "n=" << n << " q=" << qs[i];
    ASSERT_EQ(got[100], s.max()) << "n=" << n;  // q = 1
    ASSERT_TRUE(s.quantiles({}).empty());
    const double top_min = s.top_items().back().value;
    tied_across_tiers += std::any_of(
        s.body_items().begin(), s.body_items().end(),
        [&](const auto& it) { return it.value == top_min; });
    with_drops += s.dropped() > 0;
  }
  EXPECT_GT(tied_across_tiers, 100u);
  EXPECT_GT(with_drops, 100u);
  EXPECT_LT(with_drops, xs.size());
}

TEST(TailSketch, NaNQuantileIsNaN) {
  // A NaN q has no rank: it is flagged, not answered with the maximum.
  TailSketch s(8, 16);
  for (std::size_t i = 1; i <= 20; ++i)
    s.insert(static_cast<double>(i), TailSketch::make_tag(8, i));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto q = s.quantiles(std::vector<double>{nan, 0.5, nan});
  ASSERT_EQ(q.size(), 3u);
  EXPECT_TRUE(std::isnan(q[0]));
  EXPECT_EQ(q[1], 10.0);
  EXPECT_TRUE(std::isnan(q[2]));
}

TEST(TailSketch, QuantileApproximationIsCloseUnderSampling) {
  const std::size_t n = 50000;
  const auto xs = pareto_values(n, 1.5, 31);
  TailSketch s(256, 1024);
  for (std::size_t i = 0; i < n; ++i)
    s.insert(xs[i], TailSketch::make_tag(3, i));
  EXPECT_GT(s.dropped(), 0u);

  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const auto exact_q = [&](double q) {
    return sorted[static_cast<std::size_t>(q * (n - 1))];
  };
  const auto q = s.quantiles(std::vector<double>{0.5, 0.9, 0.99});
  // Body-region quantiles: a 1024-point uniform sample pins the rank to
  // ~±0.1%, so the value is close even under a heavy tail.
  EXPECT_NEAR(q[0] / exact_q(0.5), 1.0, 0.15);
  EXPECT_NEAR(q[1] / exact_q(0.9), 1.0, 0.15);
  // p99 is rank 500 from the top — deeper than top_k=256, so it falls in
  // the subsampled body where a ~0.2% rank error spans half the remaining
  // tail mass and the Pareto quantile amplifies it into a large value
  // error. Only sanity-bound it here; the next sketch shows the fix.
  EXPECT_NEAR(q[2] / exact_q(0.99), 1.0, 0.5);

  // Size top_k past the deepest quantile's from-the-top rank and that
  // quantile is answered from the exactly-kept order statistics: the
  // documented way to get accurate deep-tail quantiles from the sketch.
  TailSketch wide(2048, 1024);
  for (std::size_t i = 0; i < n; ++i)
    wide.insert(xs[i], TailSketch::make_tag(3, i));
  EXPECT_EQ(wide.quantiles(std::vector<double>{0.99})[0], exact_q(0.99));
}

// ---------------------------------------------------------------------------
// sample_values against the general construction it must equal: a
// Walker/Vose alias table over one weight per retained item (1 for each
// top item, then body_w for each body item), drawn with one below(n) and
// one uniform() per value. The sketch builds the same table from the two
// weight classes, so its draws must match bit for bit and consume the
// generator identically.

/// Vose's alias table over any weight vector, with two index worklists
/// processed as stacks.
class ReferenceAliasTable {
 public:
  explicit ReferenceAliasTable(std::span<const double> weights) {
    const std::size_t n = weights.size();
    double total = 0.0;
    for (double w : weights)
      if (w > 0.0 && std::isfinite(w)) total += w;
    if (n == 0 || !(total > 0.0)) return;
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weights[i];
      scaled[i] = (w > 0.0 && std::isfinite(w))
                      ? w / total * static_cast<double>(n)
                      : 0.0;
    }
    prob_.assign(n, 1.0);
    alias_.resize(n);
    for (std::size_t i = 0; i < n; ++i) alias_[i] = i;
    std::vector<std::size_t> small, large;
    for (std::size_t i = 0; i < n; ++i)
      (scaled[i] < 1.0 ? small : large).push_back(i);
    while (!small.empty() && !large.empty()) {
      const std::size_t s = small.back();
      small.pop_back();
      const std::size_t l = large.back();
      large.pop_back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    for (std::size_t i : small) prob_[i] = 1.0;
    for (std::size_t i : large) prob_[i] = 1.0;
  }

  [[nodiscard]] bool empty() const noexcept { return prob_.empty(); }

  [[nodiscard]] std::size_t draw(support::Rng& rng) const noexcept {
    if (prob_.empty()) return 0;
    const auto col = static_cast<std::size_t>(rng.below(prob_.size()));
    const double u = rng.uniform();
    return u < prob_[col] ? col : alias_[col];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
};

/// sample_values by definition: the ascending retained multiset when
/// nothing was dropped and it fits max_n, else max_n alias-table draws.
std::vector<double> reference_sample_values(const TailSketch& s,
                                            std::size_t max_n,
                                            support::Rng& rng) {
  std::vector<double> out;
  if (s.count() == 0 || max_n == 0) return out;
  if (s.dropped() == 0 && s.retained() <= max_n) {
    for (const auto& it : s.top_items()) out.push_back(it.value);
    for (const auto& it : s.body_items()) out.push_back(it.value);
    std::sort(out.begin(), out.end());
    return out;
  }
  const double body_pop = static_cast<double>(s.count()) -
                          static_cast<double>(s.top_items().size());
  const double body_w =
      s.body_items().empty()
          ? 0.0
          : body_pop / static_cast<double>(s.body_items().size());
  std::vector<double> values, weights;
  for (const auto& it : s.top_items()) {
    values.push_back(it.value);
    weights.push_back(1.0);
  }
  for (const auto& it : s.body_items()) {
    values.push_back(it.value);
    weights.push_back(body_w);
  }
  const ReferenceAliasTable table(weights);
  if (table.empty()) return out;
  for (std::size_t i = 0; i < max_n; ++i) out.push_back(values[table.draw(rng)]);
  return out;
}

TEST(TailSketch, SampleValuesMatchAliasTableBitForBit) {
  // Each stream grows one sketch item by item and compares at ~100 sizes
  // between 1 and 5,000, for several max_n. Streams cover continuous and
  // heavily tied values, rejected inserts, a body of capacity 0 (top-only
  // once the top set is full), a top set larger than the stream, and
  // max_n below the retained count with nothing dropped (the sampled path
  // with body weight 1).
  struct Stream {
    std::size_t top_k, body, n;
    int kind;  // 0 Pareto, 1 integers 1..4, 2 integers with rejects
  };
  const Stream streams[] = {
      {512, 1024, 5000, 0}, {512, 1024, 5000, 1}, {8, 24, 3000, 1},
      {64, 0, 2000, 0},     {5000, 16, 1200, 0},  {1, 1, 800, 2},
      {32, 200, 4000, 2},   {3, 1000, 1500, 0},   {16, 64, 2500, 1},
      {256, 256, 5000, 0},  {2, 7, 600, 1},       {100, 1, 900, 2}};
  const std::size_t max_ns[] = {1, 7, 512, 1536, 2000};
  support::Rng values_rng(77);
  std::size_t states = 0, exact = 0, sampled = 0, top_only = 0, unit_body = 0,
              tied = 0;
  for (std::size_t si = 0; si < std::size(streams); ++si) {
    const Stream& st = streams[si];
    TailSketch s(st.top_k, st.body);
    const std::size_t step = std::max<std::size_t>(1, st.n / 100);
    for (std::size_t i = 1; i <= st.n; ++i) {
      const double u = values_rng.uniform_pos();
      double v = std::pow(u, -1.0 / 1.3);
      if (st.kind >= 1) v = std::min(std::floor(v), 4.0);
      if (st.kind == 2 && i % 9 == 0) v = i % 2 ? 0.0 : -v;
      s.insert(v, TailSketch::make_tag(si, i));
      if (i % step != 0 && i > 3) continue;
      for (const std::size_t max_n : max_ns) {
        support::Rng a(1000 * si + i), b(1000 * si + i);
        const auto got = s.sample_values(max_n, a);
        const auto want = reference_sample_values(s, max_n, b);
        ASSERT_EQ(got.size(), want.size()) << "stream " << si << " n " << i;
        for (std::size_t k = 0; k < want.size(); ++k)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                    std::bit_cast<std::uint64_t>(want[k]))
              << "stream " << si << " n " << i << " max_n " << max_n
              << " draw " << k;
        ASSERT_EQ(a(), b()) << "generator consumed differently, stream " << si;
        ++states;
        const bool is_exact = s.dropped() == 0 && s.retained() <= max_n;
        (is_exact ? exact : sampled) += 1;
        if (is_exact) continue;
        top_only += s.body_items().empty();
        unit_body += s.dropped() == 0 && !s.body_items().empty();
        tied += std::any_of(s.body_items().begin(), s.body_items().end(),
                            [&](const auto& it) {
                              return it.value == s.top_items().back().value;
                            });
      }
    }
  }
  EXPECT_GE(states, 1000u);
  EXPECT_GT(exact, 100u);
  EXPECT_GT(sampled, 1000u);
  EXPECT_GT(top_only, 50u);
  EXPECT_GT(unit_body, 50u);
  EXPECT_GT(tied, 200u);
}

TEST(TailSketch, SampleValuesDrawInProportionToWeights) {
  // Values 1..16 through a 4 + 4 sketch: the top set holds 13..16 at weight
  // 1 each, and the 4 body survivors of 1..12 stand in for 12 items, so
  // each carries weight 3. Out of 16, a top value is drawn 1/16 of the
  // time and a body survivor 3/16.
  TailSketch s(4, 4);
  for (std::size_t i = 1; i <= 16; ++i)
    s.insert(static_cast<double>(i), TailSketch::make_tag(12, i));
  ASSERT_EQ(s.dropped(), 8u);
  support::Rng rng(7);
  const std::size_t draws = 200000;
  const auto sample = s.sample_values(draws, rng);
  ASSERT_EQ(sample.size(), draws);
  const auto frequency = [&](double v) {
    return static_cast<double>(std::count(sample.begin(), sample.end(), v)) /
           static_cast<double>(draws);
  };
  for (const auto& it : s.top_items())
    EXPECT_NEAR(frequency(it.value), 1.0 / 16.0, 0.01) << it.value;
  for (const auto& it : s.body_items())
    EXPECT_NEAR(frequency(it.value), 3.0 / 16.0, 0.01) << it.value;
}

TEST(TailSketch, RejectsNonPositiveAndNonFinite) {
  TailSketch s(8, 8);
  s.insert(0.0, 1);
  s.insert(-3.0, 2);
  s.insert(std::numeric_limits<double>::quiet_NaN(), 3);
  s.insert(std::numeric_limits<double>::infinity(), 4);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.rejected(), 4u);
  const auto q = s.quantiles(std::vector<double>{0.5, 1.0});
  ASSERT_EQ(q.size(), 2u);
  EXPECT_TRUE(std::isnan(q[0]) && std::isnan(q[1]));
  support::Rng rng(1);
  EXPECT_TRUE(s.sample_values(10, rng).empty());
}

TEST(MomentWindow, CanonicalFoldIsChunkingInvariant) {
  // The analyzer's window moments fold per-block summaries oldest to
  // newest. Chunk placement changes WHEN each bin receives its increments,
  // never which bin or how many: counts are exact small-integer additions,
  // so the materialized bins — and the canonical fold over them, bit for
  // bit — are pure functions of the event multiset. Model the mechanism:
  // accumulate the same event stream into bins under three different chunk
  // interleavings and require bitwise-identical folded state.
  support::Rng rng(17);
  const std::size_t nbins = 1024, block = 128, events = 20000;
  std::vector<std::size_t> event_bin(events);
  for (auto& e : event_bin)
    e = static_cast<std::size_t>(rng.below(nbins));

  auto fold_with_chunk = [&](std::size_t chunk) {
    std::vector<double> bins(nbins, 0.0);
    for (std::size_t start = 0; start < events; start += chunk) {
      const std::size_t end = std::min(events, start + chunk);
      for (std::size_t i = start; i < end; ++i) bins[event_bin[i]] += 1.0;
    }
    stats::MomentSummary acc;
    for (std::size_t b0 = 0; b0 < nbins; b0 += block) {
      const auto blk = std::span<const double>(bins).subspan(b0, block);
      acc.merge(stats::MomentSummary::of(blk));
    }
    return acc;
  };
  const auto a = fold_with_chunk(64);
  const auto b = fold_with_chunk(999);
  const auto c = fold_with_chunk(events);
  for (const auto* s : {&b, &c}) {
    EXPECT_EQ(a.count, s->count);
    EXPECT_EQ(a.mean, s->mean);
    EXPECT_EQ(a.m2, s->m2);
    EXPECT_EQ(a.min, s->min);
    EXPECT_EQ(a.max, s->max);
  }
}

}  // namespace
}  // namespace fullweb::online
