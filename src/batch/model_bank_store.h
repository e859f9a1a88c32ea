// Bounded, epoch-aware store of complete model banks, shared across
// batches.
//
// A batch group's model bank — one enumeration of the group's
// intended-model set — is the expensive shared structure of
// docs/BATCHING.md stage 5. Before this store, every AnswerBatch call
// rebuilt each group's bank from scratch, so repeated *non-identical*
// batches (same modules, disjoint queries) re-paid the paper's NP/Σ₂ᵖ
// enumeration price per call even though the answer cache deduplicated
// repeated *queries*. The store closes that gap: a bank built by one
// batch is keyed on
//
//   (module fingerprint, semantics kind, effective enumeration cap)
//
// and reused by any later group with the same key — across batches,
// across skeptical and brave modes (the bank is the model set; the modes
// differ only in the for-all vs exists pass over it), and across ladder
// rungs of the serving layer (a retried request never rebuilds a bank an
// earlier rung already completed).
//
// Safety contract:
//   * Only COMPLETE banks are ever stored. A bank truncated by a model
//     cap or budget exhaustion answers nothing; Insert refuses banks not
//     marked complete (stats().truncated_rejected), and the batch layer
//     only marks a bank complete when the enumeration provably returned
//     the whole set (it asks for cap+1 models and got at most cap).
//   * SetEpoch pins the store to the database fingerprint, exactly like
//     batch::AnswerCache: any fingerprint change drops every bank
//     wholesale before a single lookup. Module fingerprints of a mutated
//     database can never serve stale models.
//   * A lookup demands a minimum interpretation width: a bank built
//     before the vocabulary grew cannot evaluate a query mentioning a
//     newer atom, so such lookups miss (the bank stays usable for
//     queries over the old atoms).
//   * Custom CCWA/ECWA partitions change the intended-model set without
//     changing the database fingerprint; the batch layer disables the
//     store entirely for partitioned reasoners.
//
// Memory: banks are handed around as shared_ptr handles — the in-flight
// evaluation, the store, and (for EGCWA) the oracle layer's exhausted
// ProjectionStore stream all reference ONE materialization
// (Semantics::SharedModels); eviction or epoch invalidation drops the
// store's reference without copying or invalidating readers. LRU-bounded
// like AnswerCache; evictions only ever cost re-enumeration.
//
// Not thread-safe: the Reasoner performs all lookups/inserts on the
// batch caller's thread — lookups before the parallel group evaluation,
// inserts after it joins.
#ifndef DD_BATCH_MODEL_BANK_STORE_H_
#define DD_BATCH_MODEL_BANK_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "logic/interpretation.h"
#include "semantics/semantics.h"
#include "util/bounded_lru.h"

namespace dd {
namespace batch {

/// One group's enumerated intended-model set, shared by handle.
struct ModelBank {
  /// The models (never null; possibly empty — a semantics-inconsistent
  /// module has a complete empty bank). May alias engine-internal storage
  /// (an exhausted projection stream), which stays immutable once shared.
  std::shared_ptr<const std::vector<Interpretation>> models;
  /// Interpretation width: a formula may be evaluated against this bank
  /// iff every atom it mentions has Var < num_vars. INT_MAX for an empty
  /// bank (no Eval ever touches a bit).
  int num_vars = 0;
  /// True when `models` provably holds the WHOLE intended-model set.
  /// Banks without this flag answer nothing and are never stored.
  bool complete = false;
};

class ModelBankStore {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;  ///< absent keys + width-mismatch rejections
    int64_t insertions = 0;
    int64_t evictions = 0;          ///< LRU banks dropped at capacity
    int64_t invalidations = 0;      ///< full clears on fingerprint change
    int64_t truncated_rejected = 0; ///< Insert of an incomplete bank refused
  };

  /// `capacity` <= 0 means unbounded (tests only; servers should bound).
  /// Banks are heavyweight (whole model sets), so the default is far
  /// smaller than AnswerCache's.
  explicit ModelBankStore(int64_t capacity = 32) : lru_(capacity) {}

  /// The canonical composite key. `cap` is the effective bank cap the
  /// enumeration ran under (EffectiveBankCap): two batches share a bank
  /// only when they would have built the same one.
  static std::string MakeKey(uint64_t module_fingerprint, SemanticsKind kind,
                             int64_t cap);

  /// Pins the store to a database fingerprint; banks built against a
  /// different fingerprint are dropped wholesale (invalidation contract).
  void SetEpoch(uint64_t fingerprint);

  /// The stored bank for `key`, if present AND wide enough to evaluate
  /// formulas over vars [0, min_num_vars). Refreshes LRU order on hit;
  /// a width mismatch counts as a miss.
  std::shared_ptr<const ModelBank> Lookup(const std::string& key,
                                          int min_num_vars);

  /// Stores a complete bank; banks not marked complete are refused and
  /// counted (truncated banks must never be stored). Re-inserting an
  /// existing key refreshes its LRU slot.
  void Insert(const std::string& key, std::shared_ptr<const ModelBank> bank);

  void Clear();

  int64_t size() const { return lru_.size(); }
  int64_t capacity() const { return lru_.capacity(); }
  const Stats& stats() const { return stats_; }

  bool epoch_set() const { return epoch_set_; }
  uint64_t epoch() const { return epoch_; }

  /// Debug/audit iteration over live banks, most recently used first
  /// (tests assert every stored bank is complete).
  void ForEach(const std::function<void(const std::string&,
                                        const ModelBank&)>& fn) const;

 private:
  bool epoch_set_ = false;
  uint64_t epoch_ = 0;
  util::BoundedLru<std::string, std::shared_ptr<const ModelBank>> lru_;
  Stats stats_;
};

}  // namespace batch
}  // namespace dd

#endif  // DD_BATCH_MODEL_BANK_STORE_H_
