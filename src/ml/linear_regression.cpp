#include "ml/linear_regression.hpp"

#include <cmath>
#include <stdexcept>

#include "ml/linalg.hpp"

namespace hetopt::ml {

namespace {

/// Builds the (weighted) normal equations X^T W X beta = X^T W z with an
/// implicit leading intercept column and ridge term on the non-intercept
/// diagonal. A feature that is constant over the rows is collinear with the
/// intercept, so it stays out of the system: its coefficient is 0 and the
/// intercept absorbs it.
std::vector<double> weighted_least_squares(const Dataset& data,
                                           const std::vector<double>& w,
                                           const std::vector<double>& z, double lambda) {
  std::vector<std::size_t> columns;  // the features that vary
  for (std::size_t j = 0; j < data.feature_count(); ++j) {
    for (std::size_t i = 1; i < data.size(); ++i) {
      if (data.row(i)[j] != data.row(0)[j]) {
        columns.push_back(j);
        break;
      }
    }
  }
  const std::size_t k = columns.size() + 1;  // + intercept
  Matrix xtx(k, k, 0.0);
  std::vector<double> xtz(k, 0.0);
  std::vector<double> xi(k, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    xi[0] = 1.0;
    const auto row = data.row(i);
    for (std::size_t c = 0; c < columns.size(); ++c) xi[c + 1] = row[columns[c]];
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = 0; b < k; ++b) xtx.at(a, b) += w[i] * xi[a] * xi[b];
      xtz[a] += w[i] * xi[a] * z[i];
    }
  }
  for (std::size_t a = 1; a < k; ++a) xtx.at(a, a) += lambda;
  const std::vector<double> solved = solve(std::move(xtx), std::move(xtz));
  std::vector<double> coef(data.feature_count() + 1, 0.0);
  coef[0] = solved[0];
  for (std::size_t c = 0; c < columns.size(); ++c) coef[columns[c] + 1] = solved[c + 1];
  return coef;
}

double dot_with_intercept(const std::vector<double>& coef, std::span<const double> x) {
  double acc = coef[0];
  for (std::size_t j = 0; j < x.size(); ++j) acc += coef[j + 1] * x[j];
  return acc;
}

}  // namespace

LinearRegressor::LinearRegressor(double ridge_lambda) : lambda_(ridge_lambda) {
  if (ridge_lambda < 0.0) throw std::invalid_argument("LinearRegressor: negative lambda");
}

void LinearRegressor::fit(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("LinearRegressor::fit: empty dataset");
  const std::vector<double> w(data.size(), 1.0);
  coef_ = weighted_least_squares(data, w, data.targets(), lambda_);
}

double LinearRegressor::predict(std::span<const double> features) const {
  if (!fitted()) throw std::logic_error("LinearRegressor: predict before fit");
  if (features.size() + 1 != coef_.size()) {
    throw std::invalid_argument("LinearRegressor: feature count mismatch");
  }
  return dot_with_intercept(coef_, features);
}

PoissonRegressor::PoissonRegressor(int max_iterations, double tolerance)
    : max_iter_(max_iterations), tol_(tolerance) {
  if (max_iterations < 1) throw std::invalid_argument("PoissonRegressor: max_iterations < 1");
}

void PoissonRegressor::fit(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("PoissonRegressor::fit: empty dataset");
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.target(i) <= 0.0) {
      throw std::invalid_argument("PoissonRegressor::fit: targets must be positive");
    }
  }
  const std::size_t k = data.feature_count() + 1;
  // Start from the intercept-only model: log(mean target).
  double mean_y = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) mean_y += data.target(i);
  mean_y /= static_cast<double>(data.size());
  std::vector<double> beta(k, 0.0);
  beta[0] = std::log(mean_y);

  std::vector<double> w(data.size(), 0.0);
  std::vector<double> z(data.size(), 0.0);
  for (int iter = 0; iter < max_iter_; ++iter) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double eta = dot_with_intercept(beta, data.row(i));
      const double mu = std::exp(std::min(eta, 50.0));  // guard overflow
      w[i] = mu;
      z[i] = eta + (data.target(i) - mu) / mu;
    }
    std::vector<double> next = weighted_least_squares(data, w, z, 1e-9);
    double delta = 0.0;
    for (std::size_t j = 0; j < k; ++j) delta = std::max(delta, std::abs(next[j] - beta[j]));
    beta = std::move(next);
    if (delta < tol_) break;
  }
  coef_ = std::move(beta);
}

double PoissonRegressor::predict(std::span<const double> features) const {
  if (!fitted()) throw std::logic_error("PoissonRegressor: predict before fit");
  if (features.size() + 1 != coef_.size()) {
    throw std::invalid_argument("PoissonRegressor: feature count mismatch");
  }
  return std::exp(std::min(dot_with_intercept(coef_, features), 50.0));
}

}  // namespace hetopt::ml
