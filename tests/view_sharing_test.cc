// One MinimalEngine per Reasoner database view, shared by every semantics:
// no state may leak from one semantics to another through the shared
// session, minimality memo or entailment memo.
//
// Random positive, integrity-clause, stratified and unstratifiable DDBs
// are queried on ONE Reasoner under all eleven semantics, in forward,
// reverse and seeded-shuffled order, with a SetPartition in the middle
// followed by CCWA/ECWA. Every literal, formula and HasModel verdict must
// equal a fresh Reasoner's verdict (same Status on failures) and
// core/brute_force; every counterexample must be an intended model that
// violates the formula.
#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/brute_force.h"
#include "core/reasoner.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "strat/stratifier.h"
#include "tests/test_util.h"

namespace dd {
namespace {

const SemanticsKind kAllKinds[] = {
    SemanticsKind::kCwa,  SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
    SemanticsKind::kCcwa, SemanticsKind::kEcwa, SemanticsKind::kDdr,
    SemanticsKind::kPws,  SemanticsKind::kPerf, SemanticsKind::kIcwa,
    SemanticsKind::kDsm,  SemanticsKind::kPdsm,
};

enum class Family { kPositive, kIntegrity, kStratified, kUnstratifiable };

Database Draw(Family family, Rng* rng) {
  const int n = 4 + static_cast<int>(rng->Below(2));  // 4..5 atoms
  const int m = 5 + static_cast<int>(rng->Below(3));  // 5..7 clauses
  DdbConfig cfg;
  cfg.num_vars = n;
  cfg.num_clauses = m;
  cfg.max_head = 2;
  cfg.max_body = 2;
  cfg.seed = rng->Next();
  switch (family) {
    case Family::kPositive:
      return RandomPositiveDdb(n, m, rng->Next());
    case Family::kIntegrity:
      cfg.integrity_fraction = 0.2;
      return RandomDdb(cfg);
    case Family::kStratified:
      return RandomStratifiedDdb(n, m, 2, 0.4, rng->Next());
    case Family::kUnstratifiable: {
      cfg.negation_fraction = 0.3;
      Database db = RandomDdb(cfg);
      // An even negative cycle rules out every stratification.
      db.AddClause(Clause({0}, {}, {1}));
      db.AddClause(Clause({1}, {}, {0}));
      return db;
    }
  }
  return Database();
}

/// One query of the mix, as text (what Reasoner callers send).
struct Query {
  enum Kind { kLiteral, kFormula, kHasModel, kCounterexample } kind;
  std::string text;
};

/// Outcome of one query: a Status, or a verdict (for counterexample
/// queries: whether one exists, and the witness).
struct Outcome {
  Status status;
  bool verdict = false;
  std::optional<Interpretation> witness;
};

Outcome FromResult(const Result<bool>& b) {
  Outcome out;
  if (b.ok()) {
    out.verdict = *b;
  } else {
    out.status = b.status();
  }
  return out;
}

Outcome Ask(Reasoner* r, SemanticsKind kind, const Query& q) {
  switch (q.kind) {
    case Query::kLiteral:
      return FromResult(r->InfersLiteral(kind, q.text));
    case Query::kFormula:
      return FromResult(r->InfersFormula(kind, q.text));
    case Query::kHasModel:
      return FromResult(r->HasModel(kind));
    case Query::kCounterexample:
      break;
  }
  Outcome out;
  auto ce = r->FindCounterexample(kind, q.text);
  if (!ce.ok()) {
    out.status = ce.status();
    return out;
  }
  out.verdict = ce->has_value();
  out.witness = *ce;
  return out;
}

/// A <P;Q;Z> partition drawn from `rng`, as SetPartition atom-name lists.
struct NamedPartition {
  std::vector<std::string> p, q, z;
  Partition pqz;
};

NamedPartition DrawPartition(const Database& db, Rng* rng) {
  NamedPartition out;
  const int n = db.num_vars();
  out.pqz.p = Interpretation(n);
  out.pqz.q = Interpretation(n);
  out.pqz.z = Interpretation(n);
  for (Var v = 0; v < n; ++v) {
    const uint64_t side = v == 0 ? 0 : rng->Below(3);  // keep P nonempty
    const std::string& name = db.vocabulary().Name(v);
    if (side == 0) {
      out.p.push_back(name);
      out.pqz.p.Insert(v);
    } else if (side == 1) {
      out.q.push_back(name);
      out.pqz.q.Insert(v);
    } else {
      out.z.push_back(name);
      out.pqz.z.Insert(v);
    }
  }
  return out;
}

/// The brute-force reference, or nullopt where the semantics rejects the
/// database (DDR/PWS need a deductive DB, PERF no integrity clauses, ICWA
/// a stratification); the Reasoner must then fail on both sides alike.
std::optional<testing::BruteReference> Reference(
    SemanticsKind kind, const Database& db, const Partition* pqz) {
  switch (kind) {
    case SemanticsKind::kDdr:
    case SemanticsKind::kPws:
      if (!db.IsDeductive()) return std::nullopt;
      break;
    case SemanticsKind::kPerf:
      if (db.HasIntegrityClauses()) return std::nullopt;
      break;
    case SemanticsKind::kIcwa:
      if (!Stratify(db).ok()) return std::nullopt;
      break;
    default:
      break;
  }
  if (pqz != nullptr && kind == SemanticsKind::kCcwa) {
    testing::BruteReference ref;
    ref.models = brute::CcwaModels(db, *pqz);
    return ref;
  }
  if (pqz != nullptr && kind == SemanticsKind::kEcwa) {
    testing::BruteReference ref;
    ref.models = brute::PqzMinimalModels(db, *pqz);
    return ref;
  }
  return testing::BruteForceReference(kind, db);
}

/// Checks `got` against brute force: the verdict, and for counterexample
/// queries that the witness is an intended model violating f.
void CheckAgainstBrute(const testing::BruteReference& ref, const Query& q,
                       const Formula& f, const Outcome& got,
                       const std::string& label) {
  if (q.kind == Query::kHasModel) {
    EXPECT_EQ(got.verdict, ref.HasModel()) << label;
    return;
  }
  const bool inferred = ref.Infers(f);
  if (q.kind != Query::kCounterexample) {
    EXPECT_EQ(got.verdict, inferred) << label;
    return;
  }
  EXPECT_EQ(got.verdict, !inferred) << label;
  if (!got.witness.has_value()) return;
  const Interpretation& w = *got.witness;
  if (ref.three_valued) {
    // PDSM reports the true-atom projection of a partial stable model in
    // which f is not true.
    const bool found = std::any_of(
        ref.partial.begin(), ref.partial.end(),
        [&](const PartialInterpretation& i) {
          return i.TrueSet() == w && f->Eval3(i) != TruthValue::kTrue;
        });
    EXPECT_TRUE(found) << label;
    return;
  }
  EXPECT_FALSE(f->Eval(w)) << label;
  EXPECT_TRUE(testing::ModelSet(ref.models).count(w) > 0) << label;
}

TEST(ViewSharing, NoStateLeaksBetweenSemanticsOnOneReasoner) {
  Rng rng(17017);
  int checked = 0;
  for (Family family : {Family::kPositive, Family::kIntegrity,
                        Family::kStratified, Family::kUnstratifiable}) {
    for (int draw = 0; draw < 5; ++draw) {
      const Database db = Draw(family, &rng);
      const int n = db.num_vars();
      // The query mix (texts parse against db's vocabulary, no new atoms).
      Database scratch = db;
      const Var atom = static_cast<Var>(rng.Below(static_cast<uint64_t>(n)));
      const std::string name = db.vocabulary().Name(atom);
      const std::string lit = rng.Chance(0.5) ? "not " + name : name;
      const std::string formula =
          testing::RandomFormula(&rng, n, 2)->ToString(db.vocabulary());
      const std::vector<Query> queries = {{Query::kLiteral, lit},
                                          {Query::kFormula, formula},
                                          {Query::kHasModel, ""},
                                          {Query::kCounterexample, formula}};
      std::vector<Formula> parsed;
      for (const Query& q : queries) {
        if (q.kind == Query::kHasModel) {
          parsed.push_back(nullptr);
        } else if (q.kind == Query::kLiteral) {
          Result<Lit> l = ParseLiteral(q.text, &scratch.vocabulary());
          ASSERT_TRUE(l.ok());
          parsed.push_back(FormulaNode::MakeLit(*l));
        } else {
          parsed.push_back(testing::F(&scratch, q.text));
        }
      }
      ASSERT_EQ(scratch.num_vars(), n);
      const NamedPartition part = DrawPartition(db, &rng);

      // Fresh-Reasoner answers, one Reasoner per query, per partition mode.
      std::map<std::pair<SemanticsKind, bool>, std::vector<Outcome>> fresh;
      auto fresh_answers = [&](SemanticsKind kind, bool partitioned) {
        auto key = std::make_pair(kind, partitioned);
        auto it = fresh.find(key);
        if (it != fresh.end()) return it->second;
        std::vector<Outcome> out;
        for (const Query& q : queries) {
          Reasoner r(db);
          if (partitioned) {
            EXPECT_TRUE(r.SetPartition(part.p, part.q, part.z).ok());
          }
          out.push_back(Ask(&r, kind, q));
        }
        fresh.emplace(key, out);
        return out;
      };

      std::vector<SemanticsKind> forward(std::begin(kAllKinds),
                                         std::end(kAllKinds));
      std::vector<SemanticsKind> reverse(forward.rbegin(), forward.rend());
      std::vector<SemanticsKind> shuffled = forward;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
      }
      for (const auto& [order_name, order] :
           {std::make_pair("forward", forward),
            std::make_pair("reverse", reverse),
            std::make_pair("shuffled", shuffled)}) {
        Reasoner shared(db);
        bool partitioned = false;
        std::vector<SemanticsKind> sequence = order;
        // SetPartition halfway, then CCWA/ECWA under the partition.
        sequence.insert(sequence.begin() + 6,
                        {SemanticsKind::kCcwa, SemanticsKind::kEcwa});
        for (size_t step = 0; step < sequence.size(); ++step) {
          if (step == 6) {
            ASSERT_TRUE(shared.SetPartition(part.p, part.q, part.z).ok());
            partitioned = true;
          }
          const SemanticsKind kind = sequence[step];
          const bool uses_partition =
              partitioned && (kind == SemanticsKind::kCcwa ||
                              kind == SemanticsKind::kEcwa);
          const std::vector<Outcome> want =
              fresh_answers(kind, uses_partition);
          const std::optional<testing::BruteReference> ref = Reference(
              kind, db, uses_partition ? &part.pqz : nullptr);
          for (size_t i = 0; i < queries.size(); ++i) {
            const std::string label =
                std::string(order_name) + " step " + std::to_string(step) +
                " " + SemanticsKindName(kind) + " query '" + queries[i].text +
                "' kind " + std::to_string(queries[i].kind) +
                (uses_partition ? " (partitioned)" : "") + "\n" +
                db.ToString();
            const Outcome got = Ask(&shared, kind, queries[i]);
            ASSERT_EQ(got.status.code(), want[i].status.code()) << label;
            if (!got.status.ok()) continue;
            EXPECT_EQ(got.verdict, want[i].verdict) << label;
            ASSERT_TRUE(ref.has_value()) << label;
            CheckAgainstBrute(*ref, queries[i], parsed[i], got, label);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 500);
}

TEST(ViewSharing, IcwaAfterGcwaAndEgcwaAddsNoOracleCall) {
  // A positive database has one stratum, so ICWA is MM(DB) and asks the
  // view engine's memoized MinimalEntails: once GCWA has asked ¬x and
  // EGCWA the formula, ICWA's literal, formula and counterexample queries
  // add no SAT call. Generic dispatch pins every query to the full view.
  SemanticsOptions opts;
  opts.analysis_dispatch = false;
  Rng rng(18018);
  for (int draw = 0; draw < 20; ++draw) {
    const Database db = Draw(Family::kPositive, &rng);
    const int n = db.num_vars();
    const std::string lit =
        "not " + db.vocabulary().Name(static_cast<Var>(
                     rng.Below(static_cast<uint64_t>(n))));
    Database scratch = db;
    const Formula f = testing::RandomFormula(&rng, n, 2);
    const std::string formula = f->ToString(db.vocabulary());
    const std::optional<testing::BruteReference> ref =
        Reference(SemanticsKind::kIcwa, db, nullptr);
    ASSERT_TRUE(ref.has_value());
    const std::string label = "'" + lit + "', '" + formula + "'\n" +
                              db.ToString();

    Reasoner r(db, opts);
    ASSERT_TRUE(r.InfersLiteral(SemanticsKind::kGcwa, lit).ok()) << label;
    ASSERT_TRUE(r.InfersFormula(SemanticsKind::kEgcwa, formula).ok())
        << label;
    const int64_t before = r.TotalStats().sat_calls;
    const Result<bool> icwa_lit = r.InfersLiteral(SemanticsKind::kIcwa, lit);
    const Result<bool> icwa_formula =
        r.InfersFormula(SemanticsKind::kIcwa, formula);
    const auto icwa_ce = r.FindCounterexample(SemanticsKind::kIcwa, formula);
    EXPECT_EQ(r.TotalStats().sat_calls, before) << label;

    ASSERT_TRUE(icwa_lit.ok() && icwa_formula.ok() && icwa_ce.ok()) << label;
    Result<Lit> l = ParseLiteral(lit, &scratch.vocabulary());
    ASSERT_TRUE(l.ok());
    EXPECT_EQ(*icwa_lit, ref->Infers(FormulaNode::MakeLit(*l))) << label;
    EXPECT_EQ(*icwa_formula, ref->Infers(f)) << label;
    Outcome got;
    got.verdict = icwa_ce->has_value();
    got.witness = *icwa_ce;
    CheckAgainstBrute(*ref, {Query::kCounterexample, formula}, f, got, label);
  }
}

}  // namespace
}  // namespace dd
