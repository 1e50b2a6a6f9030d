// Host-speed probe: a fixed kernel that does not use the repository's code,
// timed so the harness can tell how fast the host runs right now. The host's
// other tenants slow its cores in phases that last minutes; the harness
// scales its timings by how long this kernel took during the same run (see
// README.md, "Host-speed scaling").
//
//   host_speed
//
// The kernel mixes what a campaign spends its time on: an event heap, a hash
// map keyed by peer, and random reads and writes over a table larger than
// the private caches. Prints one JSON object: the kernel's wall seconds and
// a checksum that is the same on every run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

struct XorShift {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t operator()() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

std::uint64_t kernel() {
  XorShift rnd;
  std::uint64_t sum = 0;

  // A random single cycle (Sattolo) over 16 MiB, then a walk along it.
  std::vector<std::uint32_t> next(1u << 22);
  for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    std::swap(next[i], next[rnd() % i]);
  }
  std::uint32_t at = 0;
  for (int i = 0; i < (1 << 19); ++i) {
    at = next[at];
    sum += at;
  }

  // Events popped in time order, each touching a peer's entry and
  // scheduling a successor.
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<std::uint32_t, std::uint64_t> peers;
  for (std::uint32_t i = 0; i < (1u << 16); ++i) heap.emplace(rnd() % 1000000, i);
  for (int i = 0; i < (1 << 18); ++i) {
    const auto [t, id] = heap.top();
    heap.pop();
    const std::uint32_t peer = static_cast<std::uint32_t>(rnd() % 200000);
    peers[peer] += t ^ id;
    sum += next[peer * 37u % next.size()];
    heap.emplace(t + 1 + rnd() % 1000, id);
  }
  for (const auto& [peer, value] : peers) sum += peer ^ value;
  return sum;
}

}  // namespace

int main() {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t sum = kernel();
  const auto end = std::chrono::steady_clock::now();
  std::printf("{\"kernel_s\":%.9f,\"checksum\":\"0x%016llx\"}\n",
              std::chrono::duration<double>(end - start).count(),
              static_cast<unsigned long long>(sum));
  return 0;
}
