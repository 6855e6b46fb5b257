// sharded_db.cpp — out-of-line instantiation of the serving layer's
// default configuration.
//
// ShardedDB is header-only by nature (the shard lock is a template
// parameter), but the configuration every runtime consumer uses —
// ShardedDB<AnyLock>, algorithm chosen by factory name — is
// instantiated once here (sharded_db.hpp declares it extern) so the
// bench programs, examples and tests link against a single compiled
// copy instead of each re-deriving ~all of the minikv + reclaim
// headers.

#include "minikv/sharded_db.hpp"

namespace hemlock::minikv {

template class ShardedDB<AnyLock>;
template ShardedDB<AnyLock>::ShardedDB(ShardedDbOptions, reclaim::EpochDomain*);

}  // namespace hemlock::minikv
