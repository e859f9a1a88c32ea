// The counterexample/witness API (Semantics::FindCounterexample):
// consistency with InfersFormula plus witness validity, checked for every
// semantics on randomized databases.
#include "core/brute_force.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "semantics/pdsm.h"
#include "semantics/semantics.h"
#include "tests/test_util.h"

namespace dd {
namespace {

class CounterexampleSuite : public ::testing::TestWithParam<SemanticsKind> {
 protected:
  // PERF and ICWA draw `n` stratified databases and then `n` negation-free
  // ones; every other semantics draws `n`.
  int Draws(int n) const {
    SemanticsKind k = GetParam();
    return k == SemanticsKind::kPerf || k == SemanticsKind::kIcwa ? 2 * n : n;
  }

  Database MakeDb(Rng* rng, bool negation_free = false) const {
    SemanticsKind k = GetParam();
    if (k == SemanticsKind::kDdr || k == SemanticsKind::kPws) {
      DdbConfig cfg;
      cfg.num_vars = 5;
      cfg.num_clauses = 6;
      cfg.max_head = 2;
      cfg.integrity_fraction = 0.15;
      cfg.seed = rng->Next();
      return RandomDdb(cfg);
    }
    if (k == SemanticsKind::kPerf || k == SemanticsKind::kIcwa) {
      if (!negation_free) {
        return RandomStratifiedDdb(5, 6, 2, 0.4, rng->Next());
      }
      // One stratum: PERF answers through the engine's minimal-entailment
      // loop. PERF rejects integrity clauses; ICWA's draw keeps a few.
      DdbConfig cfg;
      cfg.num_vars = 5;
      cfg.num_clauses = 6;
      cfg.max_head = 2;
      cfg.integrity_fraction = k == SemanticsKind::kIcwa ? 0.15 : 0.0;
      cfg.seed = rng->Next();
      return RandomDdb(cfg);
    }
    DdbConfig cfg;
    cfg.num_vars = 5;
    cfg.num_clauses = 6;
    cfg.integrity_fraction = 0.1;
    cfg.negation_fraction =
        (k == SemanticsKind::kDsm || k == SemanticsKind::kPdsm) ? 0.3 : 0.0;
    cfg.seed = rng->Next();
    return RandomDdb(cfg);
  }
};

TEST_P(CounterexampleSuite, ConsistentWithInference) {
  Rng rng(61 + static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < Draws(25); ++iter) {
    Database db = MakeDb(&rng, /*negation_free=*/iter >= 25);
    auto sem = MakeSemantics(GetParam(), db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 2);
    auto inferred = sem->InfersFormula(f);
    auto ce = sem->FindCounterexample(f);
    if (!inferred.ok() || !ce.ok()) continue;
    ASSERT_EQ(*inferred, !ce->has_value())
        << sem->name() << "\n"
        << db.ToString() << "F = " << f->ToString(db.vocabulary());
  }
}

TEST_P(CounterexampleSuite, WitnessIsAnIntendedModelViolatingF) {
  if (GetParam() == SemanticsKind::kPdsm) {
    // PDSM projects a 3-valued witness; covered by its own test below.
    GTEST_SKIP();
  }
  Rng rng(71 + static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < Draws(25); ++iter) {
    Database db = MakeDb(&rng, /*negation_free=*/iter >= 25);
    auto sem = MakeSemantics(GetParam(), db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 2);
    auto ce = sem->FindCounterexample(f);
    if (!ce.ok() || !ce->has_value()) continue;
    const Interpretation& w = **ce;
    ASSERT_FALSE(f->Eval(w)) << sem->name() << "\n" << db.ToString();
    // The witness must be one of the semantics' own models.
    auto models = sem->Models();
    if (!models.ok()) continue;
    ASSERT_TRUE(testing::ModelSet(*models).count(w) > 0)
        << sem->name() << "\n"
        << db.ToString() << "witness " << w.ToString(db.vocabulary());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSemantics, CounterexampleSuite,
    ::testing::Values(SemanticsKind::kCwa, SemanticsKind::kGcwa,
                      SemanticsKind::kEgcwa, SemanticsKind::kCcwa,
                      SemanticsKind::kEcwa, SemanticsKind::kDdr,
                      SemanticsKind::kPws, SemanticsKind::kPerf,
                      SemanticsKind::kIcwa, SemanticsKind::kDsm,
                      SemanticsKind::kPdsm),
    [](const ::testing::TestParamInfo<SemanticsKind>& info) {
      return SemanticsKindName(info.param);
    });

TEST_P(CounterexampleSuite, CredulousIsTheDualOfSkeptical) {
  Rng rng(91 + static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 20; ++iter) {
    Database db = MakeDb(&rng);
    auto sem = MakeSemantics(GetParam(), db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 2);
    auto brave = sem->InfersCredulously(f);
    if (!brave.ok()) continue;
    if (GetParam() == SemanticsKind::kPdsm) continue;  // 3-valued reading
    // Brave(f) <=> not Skeptical(~f).
    auto cautious_neg = sem->InfersFormula(FormulaNode::MakeNot(f));
    if (!cautious_neg.ok()) continue;
    ASSERT_EQ(*brave, !*cautious_neg)
        << sem->name() << "\n"
        << db.ToString() << "F = " << f->ToString(db.vocabulary());
    // And brave(f) matches "some enumerated model satisfies f".
    auto models = sem->Models();
    if (!models.ok()) continue;
    bool expected = false;
    for (const auto& m : *models) expected |= f->Eval(m);
    ASSERT_EQ(*brave, expected) << sem->name() << "\n" << db.ToString();
  }
}

TEST(PdsmCounterexample, PartialWitnessIsPartialStable) {
  Rng rng(81);
  for (int iter = 0; iter < 30; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4;
    cfg.num_clauses = 5;
    cfg.negation_fraction = 0.4;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    PdsmSemantics pdsm(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 2);
    auto ce = pdsm.FindPartialCounterexample(f);
    ASSERT_TRUE(ce.ok());
    if (!ce->has_value()) continue;
    ASSERT_NE(f->Eval3(**ce), TruthValue::kTrue);
    auto stable = pdsm.IsPartialStable(**ce);
    ASSERT_TRUE(stable.ok());
    ASSERT_TRUE(*stable) << db.ToString();
  }
}

}  // namespace
}  // namespace dd
