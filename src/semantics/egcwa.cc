#include "semantics/egcwa.h"

#include <algorithm>
#include <cstdint>

#include "util/thread_pool.h"

namespace dd {

Result<std::vector<std::vector<Var>>> EgcwaSemantics::EntailedNegativeClauses(
    int max_size) {
  // Materialize the minimal models once; a set S yields an entailed
  // negative clause iff no minimal model contains S, and we report only
  // the ⊆-minimal such S (everything above them is subsumed).
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> minimal, Models());
  const int n = db_.num_vars();
  std::vector<std::vector<Var>> found;

  // Breadth-first by size: a candidate is interesting only if all its
  // proper subsets are "covered" (contained in some minimal model), which
  // by induction means no previously found set is a subset.
  //
  // Each level runs in three deterministic stages so the per-candidate
  // coverage scan (the hot loop: |candidates| × |minimal| containment
  // tests) can fan out over `opts_.num_threads`:
  //  1. generate the level's candidates in the canonical (base, v) order,
  //     filtering against `found` — sound because found sets of the
  //     *current* size never subsume a distinct same-size candidate, so
  //     only strictly smaller (prior-level) sets matter, and those are all
  //     present before the level starts;
  //  2. check coverage in parallel (pure reads of `minimal`; verdicts land
  //     in an index-addressed byte buffer, so no element races and no
  //     dependence on thread count);
  //  3. merge sequentially in candidate order, reproducing exactly the
  //     sequential found/next interleaving.
  const CancelToken* cancel =
      opts_.budget ? opts_.budget->cancel_token().get() : nullptr;
  std::vector<std::vector<Var>> frontier{{}};  // sets of the previous size
  for (int size = 1; size <= max_size && size <= n; ++size) {
    if (opts_.budget != nullptr && opts_.budget->Exhausted()) {
      return opts_.budget->ToStatus();
    }
    std::vector<std::vector<Var>> candidates;
    for (const auto& base : frontier) {
      Var start = base.empty() ? 0 : base.back() + 1;
      for (Var v = start; v < n; ++v) {
        std::vector<Var> cand = base;
        cand.push_back(v);
        // Skip if a found (smaller) entailed set is inside cand.
        bool subsumed = false;
        for (const auto& f : found) {
          if (std::includes(cand.begin(), cand.end(), f.begin(), f.end())) {
            subsumed = true;
            break;
          }
        }
        if (!subsumed) candidates.push_back(std::move(cand));
      }
    }

    std::vector<uint8_t> covered(candidates.size(), 0);
    ParallelFor(static_cast<int64_t>(candidates.size()), opts_.num_threads,
                cancel, [&](int64_t i) {
                  const std::vector<Var>& cand =
                      candidates[static_cast<size_t>(i)];
                  for (const auto& m : minimal) {
                    bool inside = true;
                    for (Var x : cand) {
                      if (!m.Contains(x)) {
                        inside = false;
                        break;
                      }
                    }
                    if (inside) {
                      covered[static_cast<size_t>(i)] = 1;
                      return;
                    }
                  }
                });

    // A cancelled scan leaves `covered` partially computed; merging it
    // would misclassify unchecked candidates as entailed.
    if (cancel != nullptr && cancel->cancelled()) {
      return BudgetOrUnknownStatus(opts_.budget,
                                   "EGCWA clause scan cancelled");
    }
    std::vector<std::vector<Var>> next;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (covered[i]) {
        next.push_back(std::move(candidates[i]));  // still alive; grow later
      } else {
        found.push_back(std::move(candidates[i]));  // minimal entailed clause
      }
    }
    frontier = std::move(next);
  }
  return found;
}

}  // namespace dd
