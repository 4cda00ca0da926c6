// Fixture: process-wide mutable state.  Each declaration below outlives
// the simulation that writes it and is shared by every simulation in the
// process.
#include <cstdint>
#include <vector>

namespace fixture {

struct Pool {
  std::vector<int*> free;
};

// A leaked function-local pool, the shape of a process-wide free list.
Pool& ThePool() {
  static Pool* pool = new Pool;
  return *pool;
}

static uint64_t next_id = 0;
static std::vector<int> history;

int Count() {
  static int calls;
  return ++calls;
}

thread_local int scratch = 0;

class Registry {
 public:
  static int instances;
  inline static uint64_t created{0};
  static char names[4][16];
};

}  // namespace fixture
