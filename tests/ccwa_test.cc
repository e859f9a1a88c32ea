#include "core/brute_force.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "semantics/ccwa.h"
#include "semantics/gcwa.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testing::Db;
using testing::ModelSet;

Partition RandomPartition(Rng* rng, int n) {
  Partition p;
  p.p = Interpretation(n);
  p.q = Interpretation(n);
  p.z = Interpretation(n);
  for (Var v = 0; v < n; ++v) {
    switch (rng->Below(3)) {
      case 0:
        p.p.Insert(v);
        break;
      case 1:
        p.q.Insert(v);
        break;
      default:
        p.z.Insert(v);
        break;
    }
  }
  return p;
}

TEST(Ccwa, PaperStyleExample) {
  // Careful closure only negates P-atoms: with P={a}, Q={b}, Z={c},
  // DB = {a | b}: a is false in some (P;Z)-minimal model per b-slice...
  // b=1 slice has minimal a=0; b=0 slice forces a=1 -> a is free, nothing
  // is negated, so CCWA keeps all models of DB.
  Database db = Db("a | b. c :- c.");
  Vocabulary* voc = &db.vocabulary();
  auto pqz = Partition::Make(db.num_vars(), {voc->Find("a"), voc->Find("c")},
                             {voc->Find("b")}, {});
  ASSERT_TRUE(pqz.ok());
  CcwaSemantics ccwa(db, *pqz);
  // c is in P and never true in a minimal model: ¬c inferred.
  EXPECT_TRUE(*ccwa.InfersLiteral(Lit::Neg(voc->Find("c"))));
  // a is protected by the b=0 slice.
  EXPECT_FALSE(*ccwa.InfersLiteral(Lit::Neg(voc->Find("a"))));
  // b is in Q: never negated by CCWA.
  EXPECT_FALSE(*ccwa.InfersLiteral(Lit::Neg(voc->Find("b"))));
}

TEST(Ccwa, ModelsMatchBruteForce) {
  Rng rng(161);
  for (int iter = 0; iter < 80; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(3));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(8));
    cfg.integrity_fraction = 0.15;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    CcwaSemantics ccwa(db, pqz);
    auto got = ccwa.Models();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(ModelSet(*got), ModelSet(brute::CcwaModels(db, pqz)))
        << db.ToString();
  }
}

TEST(Ccwa, LiteralInferenceMatchesBruteForce) {
  Rng rng(262);
  for (int iter = 0; iter < 60; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(3));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(8));
    cfg.integrity_fraction = 0.2;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    CcwaSemantics ccwa(db, pqz);
    auto models = brute::CcwaModels(db, pqz);
    for (Var v = 0; v < db.num_vars(); ++v) {
      for (bool sign : {true, false}) {
        Lit l = Lit::Make(v, sign);
        auto got = ccwa.InfersLiteral(l);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, brute::Infers(models, FormulaNode::MakeLit(l)))
            << db.ToString() << " v=" << v << " s=" << sign;
      }
    }
  }
}

TEST(Ccwa, FormulaInferenceAndCountingAgree) {
  Rng rng(363);
  for (int iter = 0; iter < 60; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(3));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(8));
    cfg.integrity_fraction = 0.1;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    CcwaSemantics ccwa(db, pqz);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    auto direct = ccwa.InfersFormula(f);
    auto counting = ccwa.InfersFormulaViaCounting(f);
    ASSERT_TRUE(direct.ok() && counting.ok());
    ASSERT_EQ(*direct, brute::Infers(brute::CcwaModels(db, pqz), f))
        << db.ToString();
    ASSERT_EQ(counting->inferred, *direct) << db.ToString();
  }
}

TEST(Ccwa, DegeneratePartitionIsGcwa) {
  // GcwaSemantics is CCWA over <V;∅;∅>; both must realize the paper's
  // GCWA definition, checked against the brute-force GCWA model set.
  Rng rng(464);
  for (int iter = 0; iter < 40; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 5;
    cfg.num_clauses = 6;
    cfg.integrity_fraction = 0.15;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    const std::vector<Interpretation> expected = brute::GcwaModels(db);
    CcwaSemantics ccwa(db, Partition::MinimizeAll(db.num_vars()));
    GcwaSemantics gcwa(db);
    EXPECT_EQ(gcwa.kind(), SemanticsKind::kGcwa);
    EXPECT_EQ(gcwa.partition().p.TrueCount(), db.num_vars());
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 2);
    const Var x = static_cast<Var>(rng.Below(5));
    for (CcwaSemantics* s : {&ccwa, static_cast<CcwaSemantics*>(&gcwa)}) {
      ASSERT_EQ(*s->InfersFormula(f), brute::Infers(expected, f))
          << db.ToString();
      ASSERT_EQ(*s->InfersLiteral(Lit::Neg(x)),
                brute::Infers(expected, FormulaNode::MakeLit(Lit::Neg(x))))
          << db.ToString();
      ASSERT_EQ(*s->HasModel(), !expected.empty()) << db.ToString();
      auto models = s->Models();
      ASSERT_TRUE(models.ok());
      ASSERT_EQ(ModelSet(*models), ModelSet(expected)) << db.ToString();
    }
  }
}

TEST(Ccwa, HasModelMatchesSatisfiability) {
  Database sat = Db("a | b. :- a, b.");
  Database unsat = Db("a. :- a.");
  Partition p2 = Partition::MinimizeAll(2);
  Partition p1 = Partition::MinimizeAll(1);
  EXPECT_TRUE(*CcwaSemantics(sat, p2).HasModel());
  EXPECT_FALSE(*CcwaSemantics(unsat, p1).HasModel());
}

}  // namespace
}  // namespace dd
