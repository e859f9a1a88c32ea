#include "oracle/minimality_cache.h"

#include <string>
#include <utility>

namespace dd {
namespace oracle {

namespace {

bool SamePartition(const Partition& a, const Partition& b) {
  return a.p == b.p && a.q == b.q && a.z == b.z;
}

}  // namespace

Interpretation MinimalityCache::MaskPQ(const Interpretation& m,
                                       const Partition& pqz) {
  Interpretation out(pqz.num_vars());
  for (Var v : m.TrueAtoms()) {
    if (v < pqz.num_vars() && (pqz.p.Contains(v) || pqz.q.Contains(v))) {
      out.Insert(v);
    }
  }
  return out;
}

size_t MinimalityCache::ShardIndex(const Partition& pqz) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (SamePartition(shards_[i].pqz, pqz)) return i;
  }
  shards_.push_back(Shard{pqz, {}, {}, {}});
  return shards_.size() - 1;
}

void MinimalityCache::EvictToCapacity() {
  while (cap_ > 0 && size_ > cap_ && !fifo_.empty()) {
    const Entry& e = fifo_.front();
    Shard& s = shards_[e.shard];
    size_t erased = 0;
    switch (e.map) {
      case Map::kVerdict:
        erased = s.verdicts.erase(e.key);
        break;
      case Map::kMinimized:
        erased = s.minimized.erase(e.key);
        break;
      case Map::kEntailment:
        erased = s.entailments.erase(e.fkey);
        break;
    }
    fifo_.pop_front();
    // Every ledger entry corresponds to a live map entry (maps only shrink
    // here or in Clear, which empties the ledger too).
    if (erased != 0) {
      --size_;
      ++evictions_;
    }
  }
}

std::optional<bool> MinimalityCache::LookupVerdict(
    const Partition& pqz, const Interpretation& masked) {
  Shard& s = shards_[ShardIndex(pqz)];
  auto it = s.verdicts.find(masked);
  if (it == s.verdicts.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void MinimalityCache::StoreVerdict(const Partition& pqz,
                                   const Interpretation& masked,
                                   bool minimal) {
  size_t si = ShardIndex(pqz);
  auto [it, inserted] = shards_[si].verdicts.insert_or_assign(masked, minimal);
  (void)it;
  if (inserted) {
    ++size_;
    fifo_.push_back(Entry{si, Map::kVerdict, masked, {}});
    EvictToCapacity();
  }
}

std::optional<Interpretation> MinimalityCache::LookupMinimized(
    const Partition& pqz, const Interpretation& masked) {
  Shard& s = shards_[ShardIndex(pqz)];
  auto it = s.minimized.find(masked);
  if (it == s.minimized.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void MinimalityCache::StoreMinimized(const Partition& pqz,
                                     const Interpretation& masked,
                                     const Interpretation& minimal_model) {
  size_t si = ShardIndex(pqz);
  auto [it, inserted] =
      shards_[si].minimized.insert_or_assign(masked, minimal_model);
  (void)it;
  if (inserted) {
    ++size_;
    fifo_.push_back(Entry{si, Map::kMinimized, masked, {}});
    EvictToCapacity();
  }
}

namespace {

void AppendFormulaKey(const FormulaNode& f, std::string* out) {
  switch (f.kind()) {
    case FormulaKind::kConst:
      out->push_back(f.const_value() ? 'T' : 'F');
      return;
    case FormulaKind::kAtom:
      out->push_back('a');
      out->append(std::to_string(f.atom()));
      out->push_back('.');
      return;
    case FormulaKind::kNot:
      out->push_back('~');
      break;
    case FormulaKind::kAnd:
      out->push_back('&');
      break;
    case FormulaKind::kOr:
      out->push_back('|');
      break;
    case FormulaKind::kImplies:
      out->push_back('>');
      break;
    case FormulaKind::kIff:
      out->push_back('=');
      break;
  }
  // Arity first, so n-ary connectives parse back unambiguously.
  out->append(std::to_string(f.children().size()));
  out->push_back('(');
  for (const Formula& c : f.children()) AppendFormulaKey(*c, out);
  out->push_back(')');
}

}  // namespace

std::string MinimalityCache::FormulaKey(const Formula& f) {
  std::string out;
  AppendFormulaKey(*f, &out);
  return out;
}

std::optional<MinimalityCache::Entailment> MinimalityCache::LookupEntailment(
    const Partition& pqz, const std::string& fkey) {
  Shard& s = shards_[ShardIndex(pqz)];
  auto it = s.entailments.find(fkey);
  if (it == s.entailments.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void MinimalityCache::StoreEntailment(const Partition& pqz,
                                      const std::string& fkey, Entailment e) {
  size_t si = ShardIndex(pqz);
  auto [it, inserted] =
      shards_[si].entailments.insert_or_assign(fkey, std::move(e));
  (void)it;
  if (inserted) {
    ++size_;
    fifo_.push_back(Entry{si, Map::kEntailment, {}, fkey});
    EvictToCapacity();
  }
}

void MinimalityCache::Clear() {
  shards_.clear();
  fifo_.clear();
  size_ = 0;
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

}  // namespace oracle
}  // namespace dd
