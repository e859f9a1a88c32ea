#include "semantics/counting_inference.h"

#include "sat/solver.h"

namespace dd {

namespace {

// Σ₂ᵖ oracle: do at least `j` P-atoms appear in some <P;Z>-minimal model?
// Realized by enumerating minimal projections and accumulating the union of
// their P-parts with early exit; the enumeration is "inside" the oracle.
bool AtLeastJFree(MinimalEngine* engine, const Partition& pqz, int j) {
  if (j <= 0) return true;
  Interpretation covered(engine->db().num_vars());
  int count = 0;
  bool reached = false;
  engine->EnumerateMinimalProjections(
      pqz, /*cap=*/-1, [&](const Interpretation& m) {
        for (Var v : m.TrueAtoms()) {
          if (pqz.p.Contains(v) && !covered.Contains(v)) {
            covered.Insert(v);
            ++count;
          }
        }
        if (count >= j) {
          reached = true;
          return false;  // stop enumeration
        }
        return true;
      });
  return reached;
}

// Final Σ₂ᵖ oracle: with f* known, is there a model of
// DB ∪ {¬x : x ∈ P \ FreeSet} that violates F?
bool CounterexampleWithFreeCount(MinimalEngine* engine, const Partition& pqz,
                                 const Formula& f, int free_count) {
  // Recover the (unique) free set of size free_count.
  Interpretation covered(engine->db().num_vars());
  int count = 0;
  engine->EnumerateMinimalProjections(
      pqz, /*cap=*/-1, [&](const Interpretation& m) {
        for (Var v : m.TrueAtoms()) {
          if (pqz.p.Contains(v) && !covered.Contains(v)) {
            covered.Insert(v);
            ++count;
          }
        }
        return count < free_count;
      });
  // SAT: DB ∧ {¬x : x ∈ P \ covered} ∧ ¬F — one oracle call through a
  // guarded context on the engine's session.
  const Database& db = engine->db();
  MinimalEngine::Query q(engine);
  for (Var v = 0; v < db.num_vars(); ++v) {
    if (pqz.p.Contains(v) && !covered.Contains(v)) q.AddUnit(Lit::Neg(v));
  }
  Var next = q.NextVar();
  std::vector<std::vector<Lit>> fcnf;
  Lit fl = TseitinEncode(f, &next, &fcnf);
  q.ReserveVars(next);
  for (auto& cl : fcnf) q.AddClause(std::move(cl));
  q.AddUnit(~fl);
  // kUnknown latches the engine interrupt (Query::Solve); the caller checks
  // engine->interrupted() and must not trust this placeholder.
  return q.Solve() == sat::SolveResult::kSat;
}

}  // namespace

Result<CountingInferenceResult> CountingInference(MinimalEngine* engine,
                                                  const Partition& pqz,
                                                  const Formula& f) {
  DD_RETURN_IF_ERROR(pqz.Validate());
  CountingInferenceResult out;

  const int p_size = pqz.p.TrueCount();
  // Binary search the largest j with "at least j P-atoms free".
  // Invariant: lo is known-true, hi+1 known-false.
  int lo = 0, hi = p_size;
  while (lo < hi) {
    int mid = lo + (hi - lo + 1) / 2;
    ++out.oracle_calls;
    bool at_least = AtLeastJFree(engine, pqz, mid);
    if (engine->interrupted()) return engine->interrupt_status();
    if (at_least) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  out.free_count = lo;

  ++out.oracle_calls;
  out.inferred = !CounterexampleWithFreeCount(engine, pqz, f, out.free_count);
  if (engine->interrupted()) return engine->interrupt_status();
  return out;
}

}  // namespace dd
