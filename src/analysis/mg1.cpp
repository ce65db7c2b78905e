#include "analysis/mg1.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contract.hpp"

namespace tcw::analysis {

namespace {

/// Equilibrium (residual) distribution of an integer-slot service time on
/// a lattice refined by `c` sub-cells per slot. The continuous residual
/// density is constant over each unit cell [k, k+1); refining spreads each
/// cell's mass P(S>k)/E[S] evenly over its c sub-cells.
std::vector<double> refined_equilibrium(const dist::Pmf& service, unsigned c) {
  TCW_EXPECTS(c >= 1);
  const double mean = service.mean();
  TCW_EXPECTS(mean > 0.0);
  const std::size_t support = service.size();  // values 0..support-1
  std::vector<double> beta;
  beta.reserve(c * (support > 0 ? support - 1 : 0));
  double sf = service.total_mass() - service.at(0);  // P(S > 0)
  for (std::size_t k = 0; k + 1 < support; ++k) {
    const double cell = std::max(sf, 0.0) / (static_cast<double>(c) * mean);
    for (unsigned m = 0; m < c; ++m) beta.push_back(cell);
    sf -= service.at(k + 1);
  }
  return beta;
}

double sum_prefix(const std::vector<double>& v, std::size_t end_inclusive) {
  double acc = 0.0;
  const std::size_t end = std::min(end_inclusive + 1, v.size());
  for (std::size_t i = 0; i < end; ++i) acc += v[i];
  return acc;
}

}  // namespace

double offered_intensity(const dist::Pmf& service, double lambda) {
  TCW_EXPECTS(lambda >= 0.0);
  return lambda * service.mean();
}

double pk_mean_wait(const dist::Pmf& service, double lambda) {
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho < 1.0);
  const double m = service.mean();
  const double second_moment = service.variance() + m * m;
  return lambda * second_moment / (2.0 * (1.0 - rho));
}

std::vector<double> renewal_function(const std::vector<double>& beta,
                                     double rho, std::size_t len) {
  TCW_EXPECTS(len > 0);
  TCW_EXPECTS(rho >= 0.0);
  const double b0 = beta.empty() ? 0.0 : beta[0];
  const double denom = 1.0 - rho * b0;
  TCW_EXPECTS(denom > 0.0);
  std::vector<double> u(len, 0.0);
  u[0] = 1.0 / denom;
  for (std::size_t k = 1; k < len; ++k) {
    double acc = 0.0;
    const std::size_t j_max = std::min(k, beta.size() - 1);
    for (std::size_t j = 1; j <= j_max; ++j) {
      acc += beta[j] * u[k - j];
    }
    u[k] = rho * acc / denom;
  }
  return u;
}

namespace {

struct ZBracket {
  double lower = 0.0;
  double upper = 0.0;
};

/// The renewal functions of the left and right sub-cell placements of
/// `beta` (see z_brackets), both on `len` points. Equal bit for bit to
/// renewal_function(beta, rho, len) and to renewal_function of beta shifted
/// one sub-cell right: one pass, two independent accumulators, each summed
/// in renewal_function's j-ascending order.
struct RenewalPair {
  std::vector<double> left;
  std::vector<double> right;
};

RenewalPair renewal_pair(const std::vector<double>& beta, double rho,
                         std::size_t len) {
  TCW_EXPECTS(!beta.empty());
  TCW_EXPECTS(rho >= 0.0);
  const std::size_t nb = beta.size();
  // The right placement has no mass at 0, so its denominator is exactly 1.
  const double denom_left = 1.0 - rho * beta[0];
  TCW_EXPECTS(denom_left > 0.0);
  RenewalPair out{std::vector<double>(len, 0.0), std::vector<double>(len, 0.0)};
  double* u_left = out.left.data();
  double* u_right = out.right.data();
  u_left[0] = 1.0 / denom_left;
  u_right[0] = 1.0;
  for (std::size_t k = 1; k < len; ++k) {
    double acc_left = 0.0;
    double acc_right = 0.0;
    // Left: j = 1..min(k, nb-1) over beta[j]; right: j = 1..min(k, nb)
    // over beta[j-1]. The shared range runs fused; the right placement's
    // one extra term (j = nb, reached once k >= nb) follows it.
    const std::size_t j_both = std::min(k, nb - 1);
    for (std::size_t j = 1; j <= j_both; ++j) {
      acc_left += beta[j] * u_left[k - j];
      acc_right += beta[j - 1] * u_right[k - j];
    }
    if (k >= nb) acc_right += beta[nb - 1] * u_right[k - nb];
    u_left[k] = rho * acc_left / denom_left;
    u_right[k] = rho * acc_right;
  }
  return out;
}

/// z(K, rho) at every K of `ks`, bracketed by the left/right sub-cell mass
/// placements. One renewal pair at the largest lattice index serves every
/// K: u[k] does not depend on the table length, and the running prefix sum
/// adds the same terms in the same order as a fresh sum per K would.
std::vector<ZBracket> z_brackets(const dist::Pmf& service, double lambda,
                                 const std::vector<double>& ks,
                                 unsigned refine) {
  const double rho = offered_intensity(service, lambda);
  // K <= 0: only the i = 0 term survives.
  std::vector<ZBracket> out(ks.size(), ZBracket{1.0, 1.0});
  std::vector<std::size_t> k_sub(ks.size(), 0);
  bool any_positive = false;
  std::size_t k_sub_max = 0;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (ks[i] <= 0.0) continue;
    k_sub[i] = static_cast<std::size_t>(
        std::floor(ks[i] * static_cast<double>(refine) + 1e-9));
    k_sub_max = std::max(k_sub_max, k_sub[i]);
    any_positive = true;
  }
  if (!any_positive) return out;

  const auto beta = refined_equilibrium(service, refine);
  if (beta.empty()) {
    // Service is the constant 0 (excluded upstream by mean() > 0 checks);
    // degenerate but well defined: no waiting ever.
    return out;
  }

  // Left placement: sub-cell mass at its left endpoint makes the i-fold
  // sums stochastically smaller, so its CDF -- and hence z -- is an upper
  // bound. Shifting the mass one sub-cell right gives the lower bound.
  RenewalPair z = renewal_pair(beta, rho, k_sub_max + 1);
  std::partial_sum(z.left.begin(), z.left.end(), z.left.begin());
  std::partial_sum(z.right.begin(), z.right.end(), z.right.begin());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (ks[i] > 0.0) out[i] = ZBracket{z.right[k_sub[i]], z.left[k_sub[i]]};
  }
  return out;
}

ZBracket z_bracket(const dist::Pmf& service, double lambda, double K,
                   unsigned refine) {
  return z_brackets(service, lambda, {K}, refine).front();
}

double loss_from_z(double rho, double z) { return 1.0 - z / (1.0 + rho * z); }

}  // namespace

std::vector<double> mg1_waiting_cdf_curve(const dist::Pmf& service,
                                          double lambda,
                                          const std::vector<double>& ks,
                                          unsigned refine) {
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho < 1.0);
  const std::vector<ZBracket> z = z_brackets(service, lambda, ks, refine);
  std::vector<double> out(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    out[i] = (1.0 - rho) * 0.5 * (z[i].lower + z[i].upper);
  }
  return out;
}

double mg1_waiting_cdf(const dist::Pmf& service, double lambda, double K,
                       unsigned refine) {
  return mg1_waiting_cdf_curve(service, lambda, {K}, refine).front();
}

dist::Pmf mg1_waiting_distribution(const dist::Pmf& service, double lambda,
                                   std::size_t len, unsigned refine) {
  TCW_EXPECTS(len > 0);
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho < 1.0);
  const auto beta = refined_equilibrium(service, refine);
  const std::size_t sub_len = len * refine;
  const auto u = renewal_function(
      beta.empty() ? std::vector<double>{0.0} : beta, rho, sub_len);
  std::vector<double> out(len, 0.0);
  for (std::size_t w = 0; w < len; ++w) {
    double cell = 0.0;
    for (unsigned m = 0; m < refine; ++m) cell += u[w * refine + m];
    out[w] = (1.0 - rho) * cell;
  }
  double covered = 0.0;
  for (const double v : out) covered += v;
  return dist::Pmf(std::move(out), std::max(0.0, 1.0 - covered));
}

ImpatientLoss mg1_impatient_loss(const dist::Pmf& service, double lambda,
                                 double K, unsigned refine) {
  TCW_EXPECTS(K >= 0.0);
  ImpatientLoss out;
  out.rho = offered_intensity(service, lambda);
  TCW_EXPECTS(out.rho > 0.0);
  const ZBracket z = z_bracket(service, lambda, K, refine);
  out.z_lower = z.lower;
  out.z_upper = z.upper;
  out.z = 0.5 * (z.lower + z.upper);
  out.p_loss = loss_from_z(out.rho, out.z);
  out.loss_lower = loss_from_z(out.rho, z.upper);
  out.loss_upper = loss_from_z(out.rho, z.lower);
  out.p_idle = 1.0 / (1.0 + out.rho * out.z);
  return out;
}

dist::Pmf accepted_wait_distribution(const dist::Pmf& service, double lambda,
                                     std::size_t K, unsigned refine) {
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho > 0.0);
  const auto beta = refined_equilibrium(service, refine);
  const std::size_t len = (K + 1) * refine;
  const auto u = renewal_function(
      beta.empty() ? std::vector<double>{0.0} : beta, rho, len);

  // P(0) from the same (left-placement) series for internal consistency.
  const auto k_sub = static_cast<std::size_t>(K) * refine + (refine - 1);
  const double z = sum_prefix(u, std::min<std::size_t>(k_sub, len - 1));
  const double p_idle = 1.0 / (1.0 + rho * z);

  std::vector<double> out(K + 1, 0.0);
  for (std::size_t w = 0; w <= K; ++w) {
    double cell = 0.0;
    for (unsigned m = 0; m < refine; ++m) cell += u[w * refine + m];
    out[w] = p_idle * cell;
  }
  return dist::Pmf(std::move(out), 0.0);
}

}  // namespace tcw::analysis
