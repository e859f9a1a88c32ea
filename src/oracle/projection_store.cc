#include "oracle/projection_store.h"

namespace dd {
namespace oracle {

size_t ProjectionStore::PartitionHash::operator()(const Partition& pqz) const {
  size_t h = pqz.p.Hash();
  for (size_t part : {pqz.q.Hash(), pqz.z.Hash()}) {
    h ^= part + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

ProjectionStream* ProjectionStore::GetStream(const Partition& pqz) {
  if (ProjectionStream* s = streams_.Get(pqz)) return s;
  // A new partition. At capacity the least-recently-used stream is
  // evicted; its kept context stays inert in the session, and a later
  // request for its partition re-enumerates the identical stream.
  const auto put = streams_.Put(pqz, ProjectionStream());
  evictions_ += put.evicted;
  return put.value;
}

}  // namespace oracle
}  // namespace dd
