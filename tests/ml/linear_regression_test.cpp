#include "ml/linear_regression.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace hetopt::ml {
namespace {

TEST(LinearRegressorTest, RecoversExactLinearModel) {
  Dataset d({"x1", "x2"});
  // y = 2 + 3*x1 - x2, noiseless.
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 50; ++i) {
    const double x1 = rng.uniform(-5, 5);
    const double x2 = rng.uniform(-5, 5);
    d.add(std::vector<double>{x1, x2}, 2.0 + 3.0 * x1 - x2);
  }
  LinearRegressor model(0.0);
  model.fit(d);
  ASSERT_TRUE(model.fitted());
  EXPECT_NEAR(model.coefficients()[0], 2.0, 1e-9);
  EXPECT_NEAR(model.coefficients()[1], 3.0, 1e-9);
  EXPECT_NEAR(model.coefficients()[2], -1.0, 1e-9);
  EXPECT_NEAR(model.predict(std::vector<double>{1.0, 1.0}), 4.0, 1e-9);
}

TEST(LinearRegressorTest, RidgeRescuesCollinearFeatures) {
  Dataset d({"x", "x_copy"});
  for (int i = 0; i < 20; ++i) {
    const double x = i;
    d.add(std::vector<double>{x, x}, 2.0 * x);  // perfectly collinear
  }
  LinearRegressor model(1e-6);
  EXPECT_NO_THROW(model.fit(d));
  EXPECT_NEAR(model.predict(std::vector<double>{10.0, 10.0}), 20.0, 1e-3);
}

TEST(LinearRegressorTest, UsageErrors) {
  LinearRegressor model;
  EXPECT_FALSE(model.fitted());
  EXPECT_THROW((void)model.predict(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(model.fit(Dataset({"x"})), std::invalid_argument);
  EXPECT_THROW(LinearRegressor(-1.0), std::invalid_argument);

  Dataset d({"x"});
  d.add(std::vector<double>{1.0}, 1.0);
  d.add(std::vector<double>{2.0}, 2.0);
  model.fit(d);
  EXPECT_THROW((void)model.predict(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(PoissonRegressorTest, RecoversExponentialModel) {
  Dataset d({"x"});
  // y = exp(0.5 + 0.3 x), noiseless.
  for (int i = 0; i < 40; ++i) {
    const double x = 0.1 * i - 2.0;
    d.add(std::vector<double>{x}, std::exp(0.5 + 0.3 * x));
  }
  PoissonRegressor model;
  model.fit(d);
  ASSERT_TRUE(model.fitted());
  EXPECT_NEAR(model.predict(std::vector<double>{0.0}), std::exp(0.5), 0.02);
  EXPECT_NEAR(model.predict(std::vector<double>{2.0}), std::exp(1.1), 0.05);
}

TEST(PoissonRegressorTest, PredictionsAlwaysPositive) {
  Dataset d({"x"});
  for (int i = 1; i <= 30; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, 0.1 * i);
  }
  PoissonRegressor model;
  model.fit(d);
  for (double x = -100.0; x <= 100.0; x += 10.0) {
    EXPECT_GT(model.predict(std::vector<double>{x}), 0.0);
  }
}

TEST(PoissonRegressorTest, RejectsNonPositiveTargets) {
  Dataset d({"x"});
  d.add(std::vector<double>{1.0}, 0.0);
  PoissonRegressor model;
  EXPECT_THROW(model.fit(d), std::invalid_argument);
  EXPECT_THROW(PoissonRegressor(0), std::invalid_argument);
}

TEST(PoissonRegressorTest, ConstantColumnGetsZeroWeight) {
  // Like a one-hot column or a pool share that never changes over the
  // training rows: a constant of 100 made the normal equations singular.
  Dataset d({"x", "share"});
  for (int i = 0; i < 40; ++i) {
    const double x = 0.1 * i - 2.0;
    d.add(std::vector<double>{x, 100.0}, std::exp(0.5 + 0.3 * x));
  }
  PoissonRegressor model;
  ASSERT_NO_THROW(model.fit(d));
  EXPECT_NEAR(model.predict(std::vector<double>{0.0, 100.0}), std::exp(0.5), 0.02);
  EXPECT_NEAR(model.predict(std::vector<double>{2.0, 100.0}), std::exp(1.1), 0.05);
  // The intercept absorbed the constant: other values change nothing.
  EXPECT_EQ(model.predict(std::vector<double>{1.0, 7.0}),
            model.predict(std::vector<double>{1.0, 100.0}));
}

TEST(LinearRegressorTest, ConstantColumnGetsZeroCoefficient) {
  Dataset d({"x", "share"});
  for (int i = 0; i < 20; ++i) d.add(std::vector<double>{1.0 * i, 100.0}, 2.0 + 3.0 * i);
  LinearRegressor model(0.0);
  model.fit(d);
  EXPECT_EQ(model.coefficients()[2], 0.0);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 1e-9);
  EXPECT_NEAR(model.coefficients()[1], 3.0, 1e-9);
}

TEST(RegressorInterface, NamesIdentifyModels) {
  EXPECT_EQ(LinearRegressor().name(), "LinearRegression");
  EXPECT_EQ(PoissonRegressor().name(), "PoissonRegression");
}

}  // namespace
}  // namespace hetopt::ml
