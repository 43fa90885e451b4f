#include "core/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

namespace sparcle {

unsigned WorkerPool::resolve_threads(int requested, unsigned cap) {
  if (requested > 0) return static_cast<unsigned>(requested);
  if (const char* env = std::getenv("SPARCLE_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return cap == 0 ? hw : std::min(hw, cap);
}

}  // namespace sparcle
