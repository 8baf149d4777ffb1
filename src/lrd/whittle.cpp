#include "lrd/whittle.h"

#include <cmath>
#include <numbers>
#include <vector>

#include "stats/fft.h"
#include "stats/vecmath.h"

namespace fullweb::lrd {

using support::Error;
using support::Result;

namespace detail {

double fgn_alias_sum(double lambda, double hurst) noexcept {
  // Paxson's 3-term aliasing sum plus the Euler-Maclaurin tail correction.
  const double d = -(2.0 * hurst + 1.0);
  const double dprime = -2.0 * hurst;
  const double two_pi = 2.0 * std::numbers::pi;

  double b = 0.0;
  for (int j = 1; j <= 3; ++j) {
    const double a_j = two_pi * j + lambda;
    const double b_j = two_pi * j - lambda;
    b += std::pow(a_j, d) + std::pow(b_j, d);
  }
  const double a3 = two_pi * 3.0 + lambda;
  const double b3 = two_pi * 3.0 - lambda;
  const double a4 = two_pi * 4.0 + lambda;
  const double b4 = two_pi * 4.0 - lambda;
  b += (std::pow(a3, dprime) + std::pow(b3, dprime) + std::pow(a4, dprime) +
        std::pow(b4, dprime)) /
       (8.0 * hurst * std::numbers::pi);
  return b;
}

namespace {

/// Shared Chebyshev geometry: node abscissae mapped to [0, pi] and the
/// type-II DCT cosines used to turn node values into coefficients. Fixed for
/// the class' node count, so computed once.
struct ChebTables {
  std::array<double, AliasChebyshev::kNodes> node_lambda;
  // dct[j * kNodes + k] = cos(pi * j * (k + 1/2) / kNodes)
  std::array<double, AliasChebyshev::kNodes * AliasChebyshev::kNodes> dct;
};

const ChebTables& cheb_tables() noexcept {
  static const ChebTables tables = [] {
    constexpr std::size_t n = AliasChebyshev::kNodes;
    ChebTables t;
    for (std::size_t k = 0; k < n; ++k) {
      const double theta = std::numbers::pi * (static_cast<double>(k) + 0.5) /
                           static_cast<double>(n);
      t.node_lambda[k] = (std::cos(theta) + 1.0) * (0.5 * std::numbers::pi);
    }
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        t.dct[j * n + k] =
            std::cos(std::numbers::pi * static_cast<double>(j) *
                     (static_cast<double>(k) + 0.5) / static_cast<double>(n));
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

AliasChebyshev::AliasChebyshev(double hurst) noexcept {
  const ChebTables& t = cheb_tables();
  std::array<double, kNodes> fk;
  for (std::size_t k = 0; k < kNodes; ++k)
    fk[k] = fgn_alias_sum(t.node_lambda[k], hurst);
  const double norm = 2.0 / static_cast<double>(kNodes);
  for (std::size_t j = 0; j < kNodes; ++j) {
    double acc = 0.0;
    const double* row = t.dct.data() + j * kNodes;
    for (std::size_t k = 0; k < kNodes; ++k) acc += fk[k] * row[k];
    coef_[j] = norm * acc;
  }
}

double AliasChebyshev::operator()(double lambda) const noexcept {
  // Map [0, pi] -> [-1, 1] and run Clenshaw; sum is c0/2 + sum_j c_j T_j(x).
  const double x = lambda * (2.0 / std::numbers::pi) - 1.0;
  const double two_x = 2.0 * x;
  double b1 = 0.0, b2 = 0.0;
  for (std::size_t j = kNodes; j-- > 1;) {
    const double b0 = coef_[j] + two_x * b1 - b2;
    b2 = b1;
    b1 = b0;
  }
  return 0.5 * coef_[0] + x * b1 - b2;
}

void AliasChebyshev::eval_batch(std::span<const double> lambda,
                                std::span<double> out) const noexcept {
  // Four independent Clenshaw recurrences per step: each chain is serial,
  // but interleaving four breaks the dependency bottleneck.
  const std::size_t n = lambda.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double x0 = lambda[i] * (2.0 / std::numbers::pi) - 1.0;
    const double x1 = lambda[i + 1] * (2.0 / std::numbers::pi) - 1.0;
    const double x2 = lambda[i + 2] * (2.0 / std::numbers::pi) - 1.0;
    const double x3 = lambda[i + 3] * (2.0 / std::numbers::pi) - 1.0;
    double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
    double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
    for (std::size_t j = kNodes; j-- > 1;) {
      const double c = coef_[j];
      const double r0 = c + 2.0 * x0 * p0 - q0;
      const double r1 = c + 2.0 * x1 * p1 - q1;
      const double r2 = c + 2.0 * x2 * p2 - q2;
      const double r3 = c + 2.0 * x3 * p3 - q3;
      q0 = p0;
      q1 = p1;
      q2 = p2;
      q3 = p3;
      p0 = r0;
      p1 = r1;
      p2 = r2;
      p3 = r3;
    }
    const double half_c0 = 0.5 * coef_[0];
    out[i] = half_c0 + x0 * p0 - q0;
    out[i + 1] = half_c0 + x1 * p1 - q1;
    out[i + 2] = half_c0 + x2 * p2 - q2;
    out[i + 3] = half_c0 + x3 * p3 - q3;
  }
  for (; i < n; ++i) out[i] = (*this)(lambda[i]);
}

}  // namespace detail

double fgn_spectral_density(double lambda, double hurst) noexcept {
  // f*(l; H) = sin(pi H) Gamma(2H+1) (1 - cos l) [ |l|^{-2H-1} + B(l, H) ]
  // with B the Paxson 3-term sum plus tail correction (detail::fgn_alias_sum).
  const double b = detail::fgn_alias_sum(lambda, hurst);

  // Normalization: divide by pi so that the density of UNIT-variance fGn
  // integrates to gamma(0) = 1 over (-pi, pi], matching our periodogram
  // convention E[I(lambda)] = f(lambda) — this makes the profiled Whittle
  // scale sigma^2 equal the marginal variance. (The constant is irrelevant
  // for H itself.)
  const double scale = std::sin(std::numbers::pi * hurst) *
                       std::tgamma(2.0 * hurst + 1.0) / std::numbers::pi;
  // Numerical care: (1 - cos l) cancels catastrophically below l ~ 1e-8 and
  // l^{-2H-1} overflows for tiny l, so evaluate via 2 sin^2(l/2) and fold
  // the singular product into sinc^2(l/2) * l^{1-2H}, which stays finite
  // all the way down to denormal frequencies.
  const double half = 0.5 * lambda;
  const double sin_half = std::sin(half);
  const double sinc_half = half > 0.0 ? sin_half / half : 1.0;
  const double singular = 0.5 * sinc_half * sinc_half *
                          std::pow(std::fabs(lambda), 1.0 - 2.0 * hurst);
  return scale * (singular + 2.0 * sin_half * sin_half * b);
}

namespace {

constexpr double kLn2 = 0.69314718055994530942;

/// Per-frequency invariants of the fGn density in factored form. Writing
/// f(l; H) = scale(H) * c0(l) * l^{1-2H} * (1 + R) with R = l^{1+2H} B(l; H)
/// (the identity 2 sin^2(l/2) / c0(l) = l^2 folds the stable 1-cos form into
/// the singular factor exactly), the log-likelihood splits into
///   sum log f = m log scale + sum log c0 + (1-2H) sum log l + sum log1p(R),
/// where the first three pieces are H-independent up to the scalar (1-2H)
/// and precomputed here. Each objective evaluation then needs one exp and
/// one Clenshaw per term; sum log1p(R) is recovered from a running product
/// of (1+R) renormalized through frexp, so no per-term log remains.
struct WhittleTerms {
  std::vector<double> lambda;      ///< Fourier frequency
  std::vector<double> log_lambda;
  std::vector<double> lam2;        ///< lambda^2 = 2 sin^2(l/2) / c0(l)
  std::vector<double> q;           ///< I(lambda) / c0(lambda)
  double sum_log_lambda = 0.0;
  /// sum log c0; an H-constant offset of the objective, so it cancels in
  /// both the minimization and the curvature difference — subsampled CI
  /// grids leave it at zero.
  double sum_log_c0 = 0.0;
  std::vector<double> ebuf;        ///< scratch: lambda^{2H-1}
  std::vector<double> bbuf;        ///< scratch: aliasing-sum values

  [[nodiscard]] std::size_t size() const noexcept { return lambda.size(); }
};

WhittleTerms build_terms(const stats::Periodogram& pg,
                         std::size_t max_frequencies) {
  const std::size_t m = pg.frequency.size();
  const std::size_t stride =
      max_frequencies == 0 ? 1 : std::max<std::size_t>(1, m / max_frequencies);

  WhittleTerms t;
  const std::size_t count = (m + stride - 1) / stride;
  t.lambda.reserve(count);
  t.log_lambda.reserve(count);
  t.lam2.reserve(count);
  t.q.reserve(count);
  double c0_prod = 1.0;
  long c0_exp = 0;
  int renorm = 0;
  for (std::size_t j = stride - 1; j < m; j += stride) {
    const double lambda = pg.frequency[j];
    const double half = 0.5 * lambda;
    const double sin_half = std::sin(half);
    const double sinc_half = sin_half / half;
    const double c0 = 0.5 * sinc_half * sinc_half;
    t.lambda.push_back(lambda);
    t.lam2.push_back(lambda * lambda);
    t.q.push_back(pg.power[j] / c0);
    c0_prod *= c0;
    if (++renorm == 32) {
      int e = 0;
      c0_prod = std::frexp(c0_prod, &e);
      c0_exp += e;
      renorm = 0;
    }
  }
  t.sum_log_c0 =
      stats::vm_log(c0_prod) + static_cast<double>(c0_exp) * kLn2;
  t.log_lambda.resize(t.lambda.size());
  stats::log_batch(t.lambda, t.log_lambda);
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= t.log_lambda.size(); i += 4) {
    s0 += t.log_lambda[i];
    s1 += t.log_lambda[i + 1];
    s2 += t.log_lambda[i + 2];
    s3 += t.log_lambda[i + 3];
  }
  for (; i < t.log_lambda.size(); ++i) s0 += t.log_lambda[i];
  t.sum_log_lambda = (s0 + s2) + (s1 + s3);
  return t;
}

/// Every fourth ordinate of `t`, for cheap curvature probes: the objective
/// restricted to the subgrid has the same per-ordinate expectation, so its
/// second difference estimates the same Q''(H) at a quarter of the cost.
WhittleTerms subsample_terms(const WhittleTerms& t, std::size_t stride) {
  WhittleTerms s;
  const std::size_t count = (t.size() + stride - 1) / stride;
  s.lambda.reserve(count);
  s.log_lambda.reserve(count);
  s.lam2.reserve(count);
  s.q.reserve(count);
  for (std::size_t j = 0; j < t.size(); j += stride) {
    s.lambda.push_back(t.lambda[j]);
    s.log_lambda.push_back(t.log_lambda[j]);
    s.lam2.push_back(t.lam2[j]);
    s.q.push_back(t.q[j]);
    s.sum_log_lambda += t.log_lambda[j];
  }
  return s;  // sum_log_c0 stays 0: it cancels in curvature differences
}

/// Profiled Whittle objective Q(H); also yields the profiled scale.
double whittle_objective(WhittleTerms& t, double hurst, double* sigma2_out) {
  const std::size_t m = t.size();
  const double d = 2.0 * hurst - 1.0;  // exponent of lambda in the ratio term
  const double scale = std::sin(std::numbers::pi * hurst) *
                       std::tgamma(2.0 * hurst + 1.0) / std::numbers::pi;
  const detail::AliasChebyshev cheb(hurst);

  t.ebuf.resize(m);
  t.bbuf.resize(m);
  for (std::size_t i = 0; i < m; ++i) t.ebuf[i] = d * t.log_lambda[i];
  stats::exp_batch(t.ebuf, t.ebuf);          // lambda^{2H-1}
  cheb.eval_batch(t.lambda, t.bbuf);         // B(lambda; H)

  // One pass: ratio sum q * e / (1+R) and the product of (1+R) per lane,
  // renormalized through frexp often enough that (1+R) <= ~30 per term can
  // never overflow the chunk.
  double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
  double p0 = 1.0, p1 = 1.0, p2 = 1.0, p3 = 1.0;
  long pexp = 0;
  int renorm = 0;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double g0 = 1.0 + t.ebuf[i] * t.lam2[i] * t.bbuf[i];
    const double g1 = 1.0 + t.ebuf[i + 1] * t.lam2[i + 1] * t.bbuf[i + 1];
    const double g2 = 1.0 + t.ebuf[i + 2] * t.lam2[i + 2] * t.bbuf[i + 2];
    const double g3 = 1.0 + t.ebuf[i + 3] * t.lam2[i + 3] * t.bbuf[i + 3];
    r0 += t.q[i] * t.ebuf[i] / g0;
    r1 += t.q[i + 1] * t.ebuf[i + 1] / g1;
    r2 += t.q[i + 2] * t.ebuf[i + 2] / g2;
    r3 += t.q[i + 3] * t.ebuf[i + 3] / g3;
    p0 *= g0;
    p1 *= g1;
    p2 *= g2;
    p3 *= g3;
    if (++renorm == 32) {
      int e0 = 0, e1 = 0, e2 = 0, e3 = 0;
      p0 = std::frexp(p0, &e0);
      p1 = std::frexp(p1, &e1);
      p2 = std::frexp(p2, &e2);
      p3 = std::frexp(p3, &e3);
      pexp += e0 + e1 + e2 + e3;
      renorm = 0;
    }
  }
  for (; i < m; ++i) {
    const double g = 1.0 + t.ebuf[i] * t.lam2[i] * t.bbuf[i];
    r0 += t.q[i] * t.ebuf[i] / g;
    p0 *= g;
  }
  const double sum_ratio = ((r0 + r2) + (r1 + r3)) / scale;
  const double sum_log1p =
      ((stats::vm_log(p0) + stats::vm_log(p2)) +
       (stats::vm_log(p1) + stats::vm_log(p3))) +
      static_cast<double>(pexp) * kLn2;

  const auto mm = static_cast<double>(m);
  const double sum_logf = mm * std::log(scale) + t.sum_log_c0 -
                          d * t.sum_log_lambda + sum_log1p;
  const double sigma2 = sum_ratio / mm;
  if (sigma2_out != nullptr) *sigma2_out = sigma2;
  return std::log(sigma2) + sum_logf / mm;
}

/// Brent minimization on [ax, bx] with an absolute tolerance on x. Compared
/// to golden-section this reaches the same bracket width in roughly half the
/// objective evaluations by fitting parabolas through the three best points.
template <typename F>
double brent_min(double ax, double bx, double tol_abs, F&& fn) {
  constexpr double kGoldenComp = 0.3819660112501051;  // 2 - golden ratio
  double a = ax, b = bx;
  double x = a + kGoldenComp * (b - a);
  double w = x, v = x;
  double fx = fn(x);
  double fw = fx, fv = fx;
  double d = 0.0, e = 0.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double xm = 0.5 * (a + b);
    const double tol1 = tol_abs;
    const double tol2 = 2.0 * tol1;
    if (std::abs(x - xm) <= tol2 - 0.5 * (b - a)) break;
    bool parabolic = false;
    if (std::abs(e) > tol1) {
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::abs(q);
      const double etemp = e;
      e = d;
      if (std::abs(p) < std::abs(0.5 * q * etemp) && p > q * (a - x) &&
          p < q * (b - x)) {
        parabolic = true;
        d = p / q;
        const double u = x + d;
        if (u - a < tol2 || b - u < tol2) d = std::copysign(tol1, xm - x);
      }
    }
    if (!parabolic) {
      e = x >= xm ? a - x : b - x;
      d = kGoldenComp * e;
    }
    const double u =
        std::abs(d) >= tol1 ? x + d : x + std::copysign(tol1, d);
    const double fu = fn(u);
    if (fu <= fx) {
      if (u >= x) {
        a = x;
      } else {
        b = x;
      }
      v = w;
      w = x;
      x = u;
      fv = fw;
      fw = fx;
      fx = fu;
    } else {
      if (u < x) {
        a = u;
      } else {
        b = u;
      }
      if (fu <= fw || w == x) {
        v = w;
        w = u;
        fv = fw;
        fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u;
        fv = fu;
      }
    }
  }
  return x;
}

}  // namespace

Result<WhittleResult> whittle_hurst_pg(const stats::Periodogram& pg,
                                       const WhittleOptions& options) {
  if (pg.frequency.size() < 16)
    return Error::insufficient_data("whittle_hurst: too few frequencies");
  for (double p : pg.power) {
    if (!(p >= 0.0)) return Error::numeric("whittle_hurst: invalid periodogram");
  }
  WhittleTerms terms = build_terms(pg, options.max_frequencies);
  const std::size_t m = terms.size();
  WhittleTerms probe = m >= 2048 ? subsample_terms(terms, 4)
                                 : subsample_terms(terms, 1);

  // Q is smooth and, for fGn-like spectra, unimodal in practice over (0, 1).
  // Minimize in two stages: a coarse Brent pass on the quarter grid locates
  // the minimum to ~5e-3 at a quarter of the evaluation cost, then the full
  // grid polishes inside a bracket wide enough to absorb the subgrid's
  // statistical offset from the full-grid minimum. If the polish pins to an
  // interior bracket edge the bracket missed — fall back to the full sweep.
  const double tol = 0.5 * options.tolerance;
  auto full_q = [&terms](double h) {
    return whittle_objective(terms, h, nullptr);
  };
  const double h_coarse =
      brent_min(options.h_min, options.h_max, 5e-3,
                [&probe](double h) { return whittle_objective(probe, h, nullptr); });
  const double b_lo = std::max(options.h_min, h_coarse - 0.03);
  const double b_hi = std::min(options.h_max, h_coarse + 0.03);
  double h_hat = brent_min(b_lo, b_hi, tol, full_q);
  const bool pinned_lo = h_hat <= b_lo + options.tolerance &&
                         b_lo > options.h_min + options.tolerance;
  const bool pinned_hi = h_hat >= b_hi - options.tolerance &&
                         b_hi < options.h_max - options.tolerance;
  if (pinned_lo || pinned_hi)
    h_hat = brent_min(options.h_min, options.h_max, tol, full_q);

  WhittleResult result;
  result.objective = whittle_objective(terms, h_hat, &result.sigma2);

  // Observed information of the concentrated likelihood: -l(H) = (m/2) Q(H)
  // + const, so Var(H) ~= 2 / (m Q''(H)). Central second difference, probed
  // on a stride-4 subgrid when m is large: the per-ordinate curvature is the
  // same in expectation and the probes cost a quarter of a full evaluation.
  const double eps = 1e-3;
  const double h_lo = std::max(options.h_min, h_hat - eps);
  const double h_hi = std::min(options.h_max, h_hat + eps);
  const double q_lo = whittle_objective(probe, h_lo, nullptr);
  const double q_mid = whittle_objective(probe, h_hat, nullptr);
  const double q_hi = whittle_objective(probe, h_hi, nullptr);
  const double half = 0.5 * (h_hi - h_lo);
  const double q2 = (q_lo - 2.0 * q_mid + q_hi) / (half * half);

  result.estimate.method = HurstMethod::kWhittle;
  result.estimate.h = h_hat;
  if (q2 > 0.0) {
    const double var = 2.0 / (static_cast<double>(m) * q2);
    result.estimate.ci95_halfwidth = 1.96 * std::sqrt(var);
  }
  return result;
}

Result<WhittleResult> whittle_hurst(std::span<const double> xs,
                                    const WhittleOptions& options) {
  if (xs.size() < options.min_samples)
    return Error::insufficient_data("whittle_hurst: series too short");

  const auto pg = stats::periodogram(stats::pow2_prefix(xs));
  return whittle_hurst_pg(pg, options);
}

}  // namespace fullweb::lrd
