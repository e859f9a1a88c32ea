#include <set>

#include "core/brute_force.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "semantics/dsm.h"
#include "semantics/pdsm.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testing::Db;
using testing::F;
using testing::ModelSet;

std::set<PartialInterpretation> PartialSet(
    const std::vector<PartialInterpretation>& v) {
  return std::set<PartialInterpretation>(v.begin(), v.end());
}

TEST(Pdsm, BitEncodingRoundTrip) {
  Database db = Db("a | b. c :- not a.");
  PdsmSemantics pdsm(db);
  PartialInterpretation i(3);
  i.SetValue(0, TruthValue::kTrue);
  i.SetValue(1, TruthValue::kUndef);
  i.SetValue(2, TruthValue::kFalse);
  EXPECT_EQ(pdsm.DecodeBits(pdsm.EncodeBits(i)), i);
}

TEST(Pdsm, BitDatabaseCharacterizesThreeValuedModels) {
  Rng rng(42);
  for (int iter = 0; iter < 40; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4;
    cfg.num_clauses = 5;
    cfg.negation_fraction = 0.4;
    cfg.integrity_fraction = 0.1;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    PdsmSemantics pdsm(db);
    // For every 3-valued interpretation: Satisfies3(db) iff the bit
    // encoding satisfies the bit database.
    for (const PartialInterpretation& i :
         testing::AllPartialInterpretations(db.num_vars())) {
      ASSERT_EQ(db.Satisfies3(i),
                pdsm.bit_database().Satisfies(pdsm.EncodeBits(i)))
          << db.ToString();
    }
  }
}

TEST(Pdsm, EvenLoopHasThreePartialStableModels) {
  // a :- not b. b :- not a: {a}, {b}, and the all-undefined model (the
  // well-founded model).
  Database db = Db("a :- not b. b :- not a.");
  PdsmSemantics pdsm(db);
  auto models = pdsm.PartialModels();
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(models->size(), 3u);
  int total = 0;
  for (const auto& m : *models) total += m.IsTotal() ? 1 : 0;
  EXPECT_EQ(total, 2);
}

TEST(Pdsm, OddLoopHasOnlyUndefined) {
  // a :- not a: no stable model, but the partial model a=1/2 is stable.
  Database db = Db("a :- not a.");
  PdsmSemantics pdsm(db);
  auto models = pdsm.PartialModels();
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->size(), 1u);
  EXPECT_EQ((*models)[0].Value(0), TruthValue::kUndef);
  EXPECT_TRUE(*pdsm.HasModel());
  // Total-model projection is empty: DSM has no model here.
  auto total = pdsm.Models();
  ASSERT_TRUE(total.ok());
  EXPECT_TRUE(total->empty());
}

TEST(Pdsm, PartialModelsMatchBruteForce) {
  Rng rng(1111);
  for (int iter = 0; iter < 80; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(2));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(7));
    cfg.negation_fraction = 0.35;
    cfg.integrity_fraction = 0.1;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    PdsmSemantics pdsm(db);
    auto got = pdsm.PartialModels();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(PartialSet(*got), PartialSet(brute::PartialStableModels(db)))
        << db.ToString();
  }
}

TEST(Pdsm, TotalPartialStableModelsAreExactlyStableModels) {
  Rng rng(2222);
  for (int iter = 0; iter < 60; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(2));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(7));
    cfg.negation_fraction = 0.35;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    PdsmSemantics pdsm(db);
    DsmSemantics dsm(db);
    auto total = pdsm.Models();
    auto stable = dsm.Models();
    ASSERT_TRUE(total.ok() && stable.ok());
    ASSERT_EQ(ModelSet(*total), ModelSet(*stable)) << db.ToString();
  }
}

TEST(Pdsm, IsPartialStableAgreesWithBruteForce) {
  // Every 3^n interpretation on ONE instance, twice: the selector skeleton
  // answers each reduct by assumptions, and the second pass is served
  // entirely from the memo (keyed on bits and selector values).
  Rng rng(3333);
  for (int iter = 0; iter < 30; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(2));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(6));
    cfg.negation_fraction = 0.4;
    cfg.integrity_fraction = 0.15;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    PdsmSemantics pdsm(db);
    auto expected = PartialSet(brute::PartialStableModels(db));
    const auto all = testing::AllPartialInterpretations(db.num_vars());
    int64_t first_pass_calls = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const PartialInterpretation& i : all) {
        auto got = pdsm.IsPartialStable(i);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, expected.count(i) > 0)
            << "pass " << pass << "\n" << db.ToString();
      }
      if (pass == 0) first_pass_calls = pdsm.stats().sat_calls;
    }
    EXPECT_EQ(pdsm.stats().sat_calls, first_pass_calls) << db.ToString();
    EXPECT_LE(pdsm.session_stats().base_loads, 1);
  }
}

TEST(Pdsm, SelectorNamesNeverAliasUserAtoms) {
  // User atoms spelled like the skeleton's selector names stay distinct
  // atoms: selectors are fresh variables, not interned names.
  Database db = Db(
      "pdsm_half_sel0 :- not pdsm_one_sel0. pdsm_one_sel0 :- not "
      "pdsm_half_sel0. dsm_sel0 | c :- pdsm_half_sel0, not c.");
  PdsmSemantics pdsm(db);
  auto expected = PartialSet(brute::PartialStableModels(db));
  for (const PartialInterpretation& i :
       testing::AllPartialInterpretations(db.num_vars())) {
    auto got = pdsm.IsPartialStable(i);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, expected.count(i) > 0);
  }
  auto models = pdsm.PartialModels();
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(PartialSet(*models), expected);
}

TEST(Pdsm, InferenceRequiresTruth) {
  // Even-loop: "a | b" is undefined in the well-founded partial model, so
  // it is not inferred although both total stable models satisfy it.
  Database db = Db("a :- not b. b :- not a.");
  PdsmSemantics pdsm(db);
  EXPECT_FALSE(*pdsm.InfersFormula(F(&db, "a | b")));
  // A fact is true in every partial stable model.
  Database db2 = Db("c. a :- not b.");
  PdsmSemantics pdsm2(db2);
  EXPECT_TRUE(*pdsm2.InfersFormula(F(&db2, "c")));
}

TEST(Pdsm, SizeMismatchRejected) {
  Database db = Db("a.");
  PdsmSemantics pdsm(db);
  EXPECT_FALSE(pdsm.IsPartialStable(PartialInterpretation(3)).ok());
}

}  // namespace
}  // namespace dd
