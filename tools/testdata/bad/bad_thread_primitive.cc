// Fixture: thread primitives and their headers.  The simulator runs on
// one thread, which is the only reason its shared state needs no locks;
// a worker, a lock or an atomic counter brings that reasoning back.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>

std::atomic<uint64_t> shared_seq{0};
std::mutex pool_mu;
std::condition_variable pool_cv;
std::thread worker;
std::jthread stoppable_worker;

int Later() {
  return std::async([] { return 1; }).get();
}
