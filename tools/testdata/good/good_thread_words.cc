// Lint fixture: thread-ish words that are not thread primitives — a
// std::thread named in a comment, a string literal, and identifiers that
// merely contain "thread", "mutex" or "atomic".  None may fire.
#include <string>
#include <vector>

namespace fixture {

const char* kDoc = "std::mutex and std::atomic<int> are banned";
std::vector<std::string> threads;
int kernel_threads_busy = 0;
int atomic_steps = 0;

int CountThreads(const std::string& thread) {
  return static_cast<int>(thread.size()) + kernel_threads_busy + atomic_steps;
}

}  // namespace fixture
