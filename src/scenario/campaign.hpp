#pragma once
// One wiring path for every measurement campaign (private to the scenario
// library).
//
// A Campaign owns what run_distributed(), run_greedy() and
// run_multi_server() share, in the order the paper's manager works: the
// simulated world, the directory servers, the manager and its fleet, the
// fault, abuse and Byzantine injectors bound to them, the day-by-day run,
// and the gathering, merge and anonymisation that publish the dataset.
// Each run_*() function adds only what is specific to its campaign: which
// honeypots it launches where, and which peers want what.
//
// Servers come in two kinds, home servers first:
//   - home servers are the ones honeypots and peers log in to, and the
//     targets of the fault and abuse plans;
//   - standby servers exist only in chaos or Byzantine runs
//     (`chaos.backup_servers` of them); they are extra Byzantine targets and
//     watchdog escalation backups.
//
// Order contract: node creation order fixes every node's IP, and injector
// arming order fixes the event sequence. The constructor creates the server
// nodes before any other; each run_*() function then calls launch(),
// arm_injectors() and its own node-creating steps in its own fixed order,
// which the golden fingerprints pin.

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "peer/population.hpp"
#include "scenario/scenario.hpp"
#include "server/server.hpp"

namespace edhp::scenario {

/// The simulated network plus the state every peer shares.
struct World {
  sim::Simulation simulation;
  net::Network network;
  sim::DiurnalProfile diurnal = sim::DiurnalProfile::european_2008();
  peer::FileCatalog catalog;
  peer::SharedBlacklist blacklist;
  peer::BehaviorParams params;
  peer::SourceCache source_cache;
  std::unordered_map<std::uint32_t, double> source_weights;

  World(std::uint64_t seed, const peer::BehaviorParams& behavior, double scale,
        const net::LinkModel& link);

  [[nodiscard]] peer::PeerContext context(net::NodeId server_node);
};

class Campaign {
 public:
  /// Checks the shared config fields (std::invalid_argument naming the bad
  /// field), then builds the world, one home server per name, the standby
  /// servers and the manager. `config` must outlive the Campaign.
  Campaign(const CampaignConfig& config,
           const std::vector<std::string>& home_server_names);

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  [[nodiscard]] World& world() noexcept { return world_; }
  [[nodiscard]] honeypot::Manager& manager() noexcept { return manager_; }
  [[nodiscard]] std::span<const honeypot::ServerRef> home_servers() const {
    return {refs_.data(), home_count_};
  }
  /// Stable handles to every launched honeypot, in launch order. Honeypot
  /// objects outlive manager crashes (they are parked as orphans), so these
  /// stay valid even while the manager's fleet table is down; fault
  /// bindings and end-of-run sweeps go through them.
  [[nodiscard]] std::span<honeypot::Honeypot* const> hosts() const {
    return hosts_;
  }

  /// A honeypot config with the chaos fields stamped on: resource budgets,
  /// the audit self-test, and the Byzantine self-probe and integrity
  /// defense.
  [[nodiscard]] honeypot::HoneypotConfig honeypot_config(std::uint16_t id,
                                                         std::string name) const;
  /// Creates the honeypot's host node and launches it on `server`.
  honeypot::Honeypot& launch(honeypot::HoneypotConfig config,
                             const honeypot::ServerRef& server);

  /// Binds and arms the fault, abuse and Byzantine plans, in that order,
  /// over the honeypots launched so far. Each is a no-op when its axis is
  /// disabled: no nodes, no RNG draws, no events.
  void arm_injectors();

  /// Runs to the horizon day by day, one progress line per day.
  void run_days(std::ostream* progress);

  /// Stops the population, recovers a manager still down at the horizon,
  /// stops the manager, publishes the merged dataset into `result` with
  /// every counter, and closes the conservation ledger.
  void finish(ScenarioResult& result, peer::Population& population);

 private:
  void add_server(std::string name);

  const CampaignConfig& config_;
  World world_;
  net::DefenseConfig defense_;
  std::vector<std::unique_ptr<server::Server>> servers_;
  std::vector<honeypot::ServerRef> refs_;  ///< home servers, then standbys
  std::size_t home_count_ = 0;
  honeypot::Manager manager_;
  std::vector<honeypot::Honeypot*> hosts_;
  std::unique_ptr<fault::Injector> faults_;
  std::unique_ptr<fault::AbuseInjector> abuse_;
  std::unique_ptr<fault::ByzantineInjector> byzantine_;
  /// The control-plane outage window the fault plan opens via the
  /// crash_manager binding, so finish() can recover (or account the loss).
  Time manager_down_at_ = -1.0;  ///< sim time of the open crash, -1 when up
  std::uint64_t manager_crashes_ = 0;
};

}  // namespace edhp::scenario
