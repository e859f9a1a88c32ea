#include "core/brute_force.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "semantics/egcwa.h"
#include "semantics/icwa.h"
#include "strat/stratifier.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testing::Db;
using testing::F;
using testing::ModelSet;

TEST(Icwa, SingleStratumPositiveDbEqualsEgcwa) {
  // Theorem 4.2's observation: with S = <V>, ICWA collapses to EGCWA on
  // positive databases.
  Rng rng(111);
  for (int iter = 0; iter < 50; ++iter) {
    Database db = RandomPositiveDdb(5, 4 + static_cast<int>(rng.Below(7)),
                                    rng.Next());
    IcwaSemantics icwa(db);
    EgcwaSemantics egcwa(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 2);
    ASSERT_EQ(*icwa.InfersFormula(f), *egcwa.InfersFormula(f))
        << db.ToString();
  }
}

TEST(Icwa, StratifiedTextbookExample) {
  // a | b in stratum 1; c :- not a in stratum 2. ICWA models: pick a
  // minimal choice from {a,b}, then close carefully above it.
  Database db = Db("a | b. c :- not a.");
  IcwaSemantics icwa(db);
  auto models = icwa.Models();
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  // Expected: {a} (a chosen, c blocked) and {b, c} (a false fires c).
  Var a = db.vocabulary().Find("a"), b = db.vocabulary().Find("b"),
      c = db.vocabulary().Find("c");
  std::set<Interpretation> expect{
      Interpretation::FromAtoms(3, {a}),
      Interpretation::FromAtoms(3, {b, c}),
  };
  EXPECT_EQ(ModelSet(*models), expect);
  EXPECT_TRUE(*icwa.InfersFormula(F(&db, "a | c")));
  EXPECT_FALSE(*icwa.InfersFormula(F(&db, "c")));
}

TEST(Icwa, ModelsMatchBruteForce) {
  Rng rng(222);
  for (int iter = 0; iter < 60; ++iter) {
    Database db = RandomStratifiedDdb(5 + static_cast<int>(rng.Below(3)),
                                      5 + static_cast<int>(rng.Below(8)), 3,
                                      0.5, rng.Next());
    IcwaSemantics icwa(db);
    auto got = icwa.Models();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(ModelSet(*got), ModelSet(brute::IcwaModels(db)))
        << db.ToString();
  }
}

TEST(Icwa, FormulaInferenceMatchesBruteForce) {
  Rng rng(333);
  for (int iter = 0; iter < 80; ++iter) {
    Database db = RandomStratifiedDdb(5 + static_cast<int>(rng.Below(3)),
                                      5 + static_cast<int>(rng.Below(7)), 3,
                                      0.5, rng.Next());
    IcwaSemantics icwa(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    auto got = icwa.InfersFormula(f);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, brute::Infers(brute::IcwaModels(db), f))
        << db.ToString() << "\nF = " << f->ToString(db.vocabulary());
  }
}

TEST(Icwa, SingleStratumInferenceMatchesBruteForce) {
  // Negation-free databases with integrity clauses (one stratum); the
  // stratified draws above carry no integrity clauses.
  Rng rng(335);
  for (int iter = 0; iter < 60; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(3));
    cfg.num_clauses = 3 + static_cast<int>(rng.Below(8));
    cfg.integrity_fraction = 0.15;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    IcwaSemantics icwa(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    auto got = icwa.InfersFormula(f);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, brute::Infers(brute::IcwaModels(db), f))
        << db.ToString() << "\nF = " << f->ToString(db.vocabulary());
  }
}

TEST(Icwa, TwoStrataRunTheStratumLoop) {
  // Two strata: ICWA is not MM(DB+), so inference and counterexamples come
  // from the stratum candidate loop (which runs no MinimalEntails CEGAR
  // step) and must still match brute force.
  Rng rng(336);
  int checked = 0;
  for (int iter = 0; iter < 200 && checked < 60; ++iter) {
    Database db = RandomStratifiedDdb(5 + static_cast<int>(rng.Below(2)),
                                      5 + static_cast<int>(rng.Below(6)), 2,
                                      0.5, rng.Next());
    auto strat = Stratify(db);
    ASSERT_TRUE(strat.ok());
    if (strat->num_strata != 2) continue;
    ++checked;
    const std::vector<Interpretation> expected = brute::IcwaModels(db);
    IcwaSemantics icwa(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    auto inferred = icwa.InfersFormula(f);
    ASSERT_TRUE(inferred.ok()) << inferred.status().ToString();
    ASSERT_EQ(*inferred, brute::Infers(expected, f)) << db.ToString();
    auto ce = icwa.FindCounterexample(f);
    ASSERT_TRUE(ce.ok()) << ce.status().ToString();
    ASSERT_EQ(ce->has_value(), !*inferred) << db.ToString();
    if (ce->has_value()) {
      EXPECT_FALSE(f->Eval(**ce)) << db.ToString();
      EXPECT_TRUE(ModelSet(expected).count(**ce) > 0) << db.ToString();
    }
    EXPECT_EQ(icwa.stats().cegar_iterations, 0) << db.ToString();
  }
  EXPECT_GE(checked, 30);
}

TEST(Icwa, IsIcwaModelAgreesWithBruteForce) {
  Rng rng(444);
  for (int iter = 0; iter < 40; ++iter) {
    Database db = RandomStratifiedDdb(5, 5 + static_cast<int>(rng.Below(6)),
                                      2, 0.5, rng.Next());
    IcwaSemantics icwa(db);
    auto expected = ModelSet(brute::IcwaModels(db));
    for (const auto& m : brute::AllModels(db.Positivize())) {
      auto got = icwa.IsIcwaModel(m);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, expected.count(m) > 0) << db.ToString();
    }
  }
}

TEST(Icwa, HasModelIsConstantForStratifiedDbs) {
  Database db = Db("a | b. c :- not a. d :- c, not b.");
  IcwaSemantics icwa(db);
  auto r = icwa.HasModel();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  // The O(1) claim: no oracle calls were needed.
  EXPECT_EQ(icwa.stats().sat_calls, 0);
}

TEST(Icwa, FailsOnUnstratifiable) {
  Database db = Db("a :- not b. b :- not a.");
  IcwaSemantics icwa(db);
  EXPECT_EQ(icwa.HasModel().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Icwa, AcceptsExplicitStratification) {
  Database db = Db("a | b. c :- not a.");
  auto strat = Stratify(db);
  ASSERT_TRUE(strat.ok());
  IcwaSemantics icwa(db, *strat);
  EXPECT_TRUE(*icwa.HasModel());
}

}  // namespace
}  // namespace dd
