#pragma once
// Helpers shared by the test suites.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>

#include "logbook/record.hpp"

namespace edhp::test {

/// FNV-1a (64-bit words) over every merged record field that matters for
/// bit-identity: the fingerprint the golden tests pin.
inline std::uint64_t record_fingerprint(const logbook::LogFile& log) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& rec : log.records) {
    std::uint64_t t_bits = 0;
    static_assert(sizeof(rec.timestamp) == 8);
    std::memcpy(&t_bits, &rec.timestamp, 8);
    mix(t_bits);
    mix(rec.peer);
    mix(rec.user);
    mix(static_cast<std::uint64_t>(rec.honeypot));
    mix(static_cast<std::uint64_t>(rec.type));
  }
  return h;
}

/// A path in the temp directory that no other test process uses: keyed on
/// the running test's name and the process id, so ctest can run every test
/// in parallel. `extension` (with its dot) goes last.
inline std::filesystem::path unique_temp_path(const std::string& stem,
                                              const std::string& extension = "") {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = stem + "-" + info->test_suite_name() + "." + info->name() +
                     "-" + std::to_string(::getpid());
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterised test names contain slashes
  }
  return std::filesystem::temp_directory_path() / (name + extension);
}

}  // namespace edhp::test
