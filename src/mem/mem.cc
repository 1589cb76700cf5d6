// Intentionally nearly empty: mem/ is header-only templates; this TU
// exists so dagger_mem is an ordinary static library target.
#include "mem/direct_mapped_cache.hh"
#include "mem/hcc.hh"
