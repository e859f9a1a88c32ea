// Memoized minimality verdicts and minimization certificates.
//
// The structural fact this cache exploits (minimal/minimal_models.h):
// whether a model M is <P;Z>-minimal depends ONLY on its (P,Q)-projection,
// because the <P;Z> preorder fixes Q and ignores Z. The cache is therefore
// keyed on masked interpretations M ∩ (P ∪ Q), and one entry answers the
// minimality question for every Z-completion of the projection at once.
//
// Minimize() results are cached under the same key: the minimization
// constraints (Q pinned, absent P-atoms pinned false, strictly-smaller
// clauses) mention only P- and Q-atoms, so the cached result is a genuine
// <P;Z>-minimal model below every M sharing the masked key. See
// docs/ORACLE.md for the full soundness argument.
//
// MinimalEntails() verdicts are memoized too, keyed by the partition and
// an exact serialization of the formula (FormulaKey): the verdict and the
// counterexample depend on nothing else, so every semantics that borrows
// the engine answers a repeated question from here.
//
// Entries are grouped into per-partition shards compared by full bitset
// equality, and formula keys are compared as whole strings — never by
// hash alone — so distinct partitions or formulas can never alias.
//
// Capacity: SetCapacity bounds the total entry count across all shards
// (long-lived batch servers answer unbounded query streams against one
// database; an unbounded memo is a slow leak). Eviction is FIFO in
// insertion order — dropping an entry only costs a recomputation, never an
// answer — and is counted in evictions() (surfaced as
// dd.oracle.cache_evictions, see docs/ORACLE.md).
#ifndef DD_ORACLE_MINIMALITY_CACHE_H_
#define DD_ORACLE_MINIMALITY_CACHE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/formula.h"
#include "logic/interpretation.h"
#include "minimal/pqz.h"

namespace dd {
namespace oracle {

/// Per-engine memo of minimal-model verdicts, certificates and
/// entailment verdicts.
class MinimalityCache {
 public:
  /// M ∩ (P ∪ Q): the canonical cache key for `m` under `pqz`.
  static Interpretation MaskPQ(const Interpretation& m, const Partition& pqz);

  /// Cached IsMinimal verdict for the masked projection, if known.
  std::optional<bool> LookupVerdict(const Partition& pqz,
                                    const Interpretation& masked);
  void StoreVerdict(const Partition& pqz, const Interpretation& masked,
                    bool minimal);

  /// Cached Minimize() certificate (a <P;Z>-minimal model) for models with
  /// the masked projection, if known.
  std::optional<Interpretation> LookupMinimized(const Partition& pqz,
                                                const Interpretation& masked);
  void StoreMinimized(const Partition& pqz, const Interpretation& masked,
                      const Interpretation& minimal_model);

  /// An unambiguous serialization of `f` (connectives, atom ids, constants
  /// in prefix order): equal keys <=> structurally equal formulas.
  static std::string FormulaKey(const Formula& f);

  /// A memoized MinimalEntails() outcome: the verdict and, when the
  /// formula is not entailed, the minimal counterexample that was found.
  struct Entailment {
    bool entailed = true;
    Interpretation counterexample;
  };
  std::optional<Entailment> LookupEntailment(const Partition& pqz,
                                             const std::string& fkey);
  void StoreEntailment(const Partition& pqz, const std::string& fkey,
                       Entailment e);

  /// Bounds the total entry count across all shards; <= 0 means unbounded.
  /// Shrinking below the current size evicts (FIFO) on the next store.
  void SetCapacity(int64_t cap) { cap_ = cap; }
  int64_t capacity() const { return cap_; }
  int64_t size() const { return size_; }

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }

  void Clear();

 private:
  struct Shard {
    Partition pqz;
    std::unordered_map<Interpretation, bool> verdicts;
    std::unordered_map<Interpretation, Interpretation> minimized;
    std::unordered_map<std::string, Entailment> entailments;
  };

  enum class Map { kVerdict, kMinimized, kEntailment };

  /// FIFO ledger entry: which shard, which map, which key (`fkey` for
  /// entailments, `key` otherwise).
  struct Entry {
    size_t shard;
    Map map;
    Interpretation key;
    std::string fkey;
  };

  /// Finds (or creates) the shard for `pqz` by full bitset equality; the
  /// number of distinct partitions per engine is tiny (typically 1).
  size_t ShardIndex(const Partition& pqz);

  /// Drops oldest entries until size_ <= cap_ (no-op when unbounded).
  void EvictToCapacity();

  std::vector<Shard> shards_;
  std::deque<Entry> fifo_;  ///< insertion order over both maps
  int64_t cap_ = 0;
  int64_t size_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace oracle
}  // namespace dd

#endif  // DD_ORACLE_MINIMALITY_CACHE_H_
