// Lint fixture: statics that hold no mutable process state — const and
// constexpr data, static functions and member functions, static_assert,
// static_cast, and the word "static" in comments and string literals.
// None may fire.
#include <cstdint>

namespace fixture {

static const int kLimit = 4;
static constexpr uint64_t kMask = 0xff;
static const char* const kNames[] = {"a", "b"};

static int Twice(int x) { return 2 * x; }

class Map {
 public:
  static constexpr uint32_t kSlots = 32;
  static const int kDefault;
  static Map Make() { return Map{}; }
  static uint32_t SlotOf(uint32_t pfn) { return pfn / kSlots; }
  static int Parse(const char* text,
                   int base);
};

static_assert(sizeof(Map) == 1, "a static member adds no storage");

int Use(double d) {
  const char* doc = "static int counter; thread_local x;";
  return Twice(static_cast<int>(d)) + kLimit + (doc != nullptr ? 1 : 0);
}

}  // namespace fixture
