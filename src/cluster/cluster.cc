#include "src/cluster/cluster.h"

#include <algorithm>
#include <cassert>

namespace squeezy {

Cluster::Deciders Cluster::IndexedDeciders(const ClusterConfig& config,
                                           const std::vector<HostControl*>& hosts,
                                           HostIndex& index) {
  return {std::make_unique<ClusterScheduler>(config.placement, hosts, index),
          std::make_unique<MigrationPlanner>(hosts, config.host.cost, index)};
}

Cluster::Cluster(const ClusterConfig& config, MakeDeciders make_deciders)
    : config_(config) {
  assert(config_.nr_hosts > 0);
  // Hosts sharing a registry (dep cache / snapshot store) touch
  // cross-host state from host handlers; they get the single queue.
  const bool registries = config_.shared_dep_cache || config_.shared_snapshots;
  if (config_.queue_impl == EventQueue::Impl::kSharded && !registries) {
    sharded_ = std::make_unique<ShardedEventQueue>(config_.nr_hosts);
    events_ = &sharded_->global();
  } else {
    single_ = std::make_unique<EventQueue>();
    events_ = single_.get();
  }
  if (config_.shared_dep_cache) {
    dep_cache_ = std::make_unique<DepCache>(config_.nr_hosts);
  }
  if (config_.shared_snapshots) {
    snapshot_store_ = std::make_unique<SnapshotStore>(SnapshotStoreConfig{});
    // A recording (or its invalidation) resizes the fresh-plug commitment
    // of every replica of every function on that slot: their admission
    // must be re-probed.
    snapshot_store_->set_change_observer([this](SnapshotId snap) {
      for (size_t fn = 0; fn < fn_snapshot_.size(); ++fn) {
        if (fn_snapshot_[fn] == snap) {
          host_index_->MarkFunctionAdmitDirty(static_cast<int>(fn));
        }
      }
    });
  }
  host_index_ = std::make_unique<HostIndex>(config_.nr_hosts);
  // The deciders get the narrow control plane, not the runtimes.
  std::vector<HostControl*> raw;
  raw.reserve(config_.nr_hosts);
  for (size_t h = 0; h < config_.nr_hosts; ++h) {
    RuntimeConfig host_cfg = config_.host;
    host_cfg.seed = TraceStreamSeed(config_.host.seed, static_cast<int32_t>(h));
    hosts_.push_back(std::make_unique<FaasRuntime>(host_cfg, &host_queue(h)));
    if (dep_cache_ != nullptr) {
      hosts_.back()->AttachDepRegistry(dep_cache_.get(), h);
    }
    if (snapshot_store_ != nullptr) {
      hosts_.back()->AttachSnapshotRegistry(snapshot_store_.get());
    }
    host_index_->InitHost(h, hosts_.back()->committed(),
                          hosts_.back()->host_capacity(),
                          hosts_.back()->pending_scaleups(),
                          hosts_.back()->draining());
    hosts_.back()->AttachStateListener(this, h);
    raw.push_back(hosts_.back().get());
  }
  routed_.assign(config_.nr_hosts, 0);
  Deciders deciders = make_deciders(config_, raw, *host_index_);
  scheduler_ = std::move(deciders.scheduler);
  planner_ = std::move(deciders.planner);
}

Cluster::~Cluster() = default;

int Cluster::AddFunction(const FunctionSpec& spec, uint32_t max_concurrency) {
  const int cluster_fn = static_cast<int>(functions_.size());
  const uint64_t boot_commit =
      FaasRuntime::BootCommitment(config_.host, spec, max_concurrency);
  const uint64_t plug_unit = BytesToBlocks(spec.memory_limit) * kMemoryBlockBytes;
  const size_t replicas_wanted = config_.replicas_per_function == 0
                                     ? hosts_.size()
                                     : config_.replicas_per_function;
  const std::vector<size_t> placed =
      scheduler_->PlaceFunction(boot_commit, plug_unit, replicas_wanted);

  std::vector<Replica> replicas;
  replicas.reserve(placed.size());
  DepImageId img = kNoDepImage;
  SnapshotId snap = kNoSnapshot;
  for (const size_t h : placed) {
    replicas.push_back(Replica{h, hosts_[h]->AddFunction(spec, max_concurrency)});
    if (img == kNoDepImage) {
      img = hosts_[h]->dep_image(replicas.back().local_fn);
    }
    if (snap == kNoSnapshot) {
      snap = hosts_[h]->snapshot_id(replicas.back().local_fn);
    }
  }
  functions_.push_back(std::move(replicas));
  fn_plug_unit_.push_back(plug_unit);
  fn_dep_image_.push_back(img);
  fn_snapshot_.push_back(snap);
  // Register the replica set with the candidate indexes before any
  // routing decision for this function can arrive.
  host_index_->RegisterFunction(cluster_fn, placed);
  return cluster_fn;
}

void Cluster::DrainHost(size_t h) {
  if (hosts_[h]->draining()) {
    return;  // Already draining: nothing to migrate, nothing to re-drain.
  }
  if (config_.migration == MigrationMode::kMigrateOnDrain) {
    MigrateOff(h);
  }
  hosts_[h]->Drain();
}

size_t Cluster::MigratePressured() {
  if (config_.migration != MigrationMode::kMigrateOnDrain) {
    return 0;
  }
  const int victim = planner_->MostPressuredHost(config_.pressure_migrate_min_pending);
  if (victim < 0) {
    return 0;
  }
  return MigrateOff(static_cast<size_t>(victim));
}

size_t Cluster::MigrateOff(size_t src) {
  size_t started = 0;
  for (size_t fn = 0; fn < functions_.size(); ++fn) {
    const std::vector<Replica>& reps = functions_[fn];
    int src_idx = -1;
    for (size_t i = 0; i < reps.size(); ++i) {
      if (reps[i].host == src) {
        // Placement gives a function at most one replica per host
        // (PlaceFunction draws distinct hosts), so the first match IS the
        // source replica.  The old scan silently kept the LAST match —
        // correct only by that same uniqueness, and unchecked.
        assert(src_idx < 0 && "one replica per host per function");
        src_idx = static_cast<int>(i);
      }
    }
    if (src_idx < 0) {
      continue;
    }
    // Source half: capture + evict the warm state.  The donor's committed
    // book starts shrinking NOW through its reclaim driver, concurrently
    // with the transfer — exactly like pre-copy with the VM still up.
    const ReplicaMigrationState state =
        hosts_[src]->EvictReplica(reps[static_cast<size_t>(src_idx)].local_fn);
    if (state.warm_instances == 0) {
      continue;
    }
    // Walk the planner's ranking until a destination actually adopts: a
    // well-scored host can still be concurrency-saturated, and only what
    // it will REALLY take gets sized, priced and shipped — dropped
    // instances never inflate the transfer time or the wire bytes.
    // Destinations holding the function's dependency image warm rank
    // first: the move then skips deps_bytes on the wire entirely.
    const std::vector<size_t> ranked = planner_->RankDestinations(
        src, reps, fn_plug_unit_[fn], state.warm_instances);
    // Whether the dep cache is in play for this function at all (a
    // cache-on cluster running a non-sharing policy never registers an
    // image and migrates at full price).
    const bool dep_active = dep_cache_ != nullptr &&
                            fn_dep_image_[fn] != kNoDepImage && state.deps_bytes > 0;
    // Snapshot freshness gate: the recording reproduces recorded_bytes of
    // the captured state; once the un-recorded tail outgrows the store's
    // staleness threshold (the same stale_tail_fraction that governs
    // re-recording) the recording is a poor proxy for the live state and
    // the move falls back to a full transfer.
    const uint64_t snap_tail = state.state_bytes - state.recorded_bytes;
    const bool snap_fresh =
        snapshot_store_ != nullptr && state.recorded_bytes > 0 &&
        static_cast<double>(snap_tail) <=
            snapshot_store_->config().stale_tail_fraction *
                static_cast<double>(state.recorded_bytes);
    size_t adopted = 0;
    for (const size_t dst_idx : ranked) {
      const Replica& dst = reps[dst_idx];
      const size_t planned =
          hosts_[dst.host]->AdoptableReplicas(dst.local_fn, state.warm_instances);
      if (planned == 0) {
        continue;
      }
      // Dep-cache hit: the destination already holds the identical image,
      // so only the anonymous state crosses the wire — priced as a fixed
      // attach cost instead of shipping up to hundreds of MiB of deps.
      const bool dep_hit = dep_active && dep_cache_->Populated(dst.host, fn_dep_image_[fn]);
      // Snapshot hit: the destination can re-create the recorded portion
      // of the anonymous state from the cluster store, so only the dirty
      // delta beyond the recording crosses the wire — priced as a fixed
      // restore setup plus a bulk prefetch at snapshot speed.
      const bool snap_hit =
          snap_fresh && hosts_[dst.host]->Snapshot(dst.local_fn).snapshot_restorable;
      // Sizes the transfer for `n` of the captured instances, applying
      // the dep/snapshot discounts the chosen destination earns.
      const auto sized = [&](size_t n) {
        ReplicaMigrationState s = state;
        s.warm_instances = n;
        s.state_bytes = state.state_bytes * n / state.warm_instances;
        s.recorded_bytes = 0;
        if (dep_hit) {
          s.deps_bytes = 0;
        }
        if (snap_hit) {
          s.recorded_bytes = std::min(state.recorded_bytes * n / state.warm_instances,
                                      s.state_bytes);
          s.state_bytes -= s.recorded_bytes;  // Only the delta ships.
        }
        return s;
      };
      ReplicaMigrationState subset = sized(planned);
      StateTransferCost cost = planner_->TransferCost(subset, dep_hit, snap_hit);
      const TimeNs done_at = events_->now() + cost.total();
      adopted = hosts_[dst.host]->AdoptReplica(dst.local_fn, subset, done_at);
      if (adopted == 0) {
        continue;
      }
      // AdoptableReplicas CONTRACT (host_control.h): same books, no
      // intervening event — the adoption admits exactly what the query
      // quoted, so the priced transfer IS the shipped transfer.
      assert(adopted == planned && "AdoptReplica diverged from its AdoptableReplicas quote");
      if (adopted != planned) {
        // Never expected (asserted above); keep the release-build record
        // honest anyway by re-pricing the wire for what actually moved.
        // available_at stays at the quoted done_at — conservative: the
        // instances turn warm no earlier than promised.
        subset = sized(adopted);
        cost = planner_->TransferCost(subset, dep_hit, snap_hit);
      }
      if (dep_hit) {
        dep_cache_->RecordWireHit(state.deps_bytes);
      } else if (dep_active && dep_cache_->Resident(dst.host, fn_dep_image_[fn])) {
        // The transfer ships the image; the destination holds the bytes
        // only once it lands — the landing event materializes them into
        // the destination VM's page cache (real host frames) and records
        // the population, so neither a concurrent migration nor a peer
        // cold start can hit bytes still on the wire.
        const size_t dst_host = dst.host;
        const int dst_fn = dst.local_fn;
        events_->ScheduleAt(done_at, [this, dst_host, dst_fn] {
          hosts_[dst_host]->MaterializeImage(dst_fn);
        });
      }
      if (snap_hit) {
        // The recorded portion skipped the wire; the adopted instances
        // bulk-restore it from the store on arrival (AdoptReplica path).
        snapshot_store_->RecordMigrationHit(subset.recorded_bytes, adopted);
      }
      MigrationRecord rec;
      rec.cluster_fn = static_cast<int>(fn);
      rec.src_host = src;
      rec.dst_host = dst.host;
      rec.captured = state.warm_instances;
      rec.adopted = adopted;
      rec.bytes_sent = cost.bytes_sent;
      rec.downtime = cost.downtime;
      rec.started_at = events_->now();
      rec.done_at = done_at;
      migrations_.push_back(rec);
      ++in_flight_migrations_;
      events_->ScheduleAt(done_at, [this] { --in_flight_migrations_; });
      ++started;
      break;
    }
    migrated_instances_ += adopted;
    migration_reaped_instances_ += state.warm_instances - adopted;
  }
  return started;
}

void Cluster::SubmitTrace(const std::vector<Invocation>& trace) {
  std::vector<TimeNs> whens;
  std::vector<int> fns;
  whens.reserve(trace.size());
  fns.reserve(trace.size());
  for (const Invocation& inv : trace) {
    assert(inv.function >= 0 && static_cast<size_t>(inv.function) < functions_.size());
    whens.push_back(inv.at);
    fns.push_back(inv.function);
  }
  events_->ScheduleEach(std::move(whens),
                        [this, fns = std::move(fns)](size_t i) { Dispatch(fns[i]); });
}

void Cluster::Dispatch(int cluster_fn) {
  if (functions_[static_cast<size_t>(cluster_fn)].empty()) {
    ++unplaced_;  // No host could ever fit this function's VM.
    return;
  }
  const Replica& r =
      scheduler_->Route(cluster_fn, functions_[static_cast<size_t>(cluster_fn)]);
  ++routed_[r.host];
  // FNV-1a over (function, host) pairs: any divergence in any decision
  // changes the digest.
  routing_hash_ ^= static_cast<uint64_t>(cluster_fn) * 131 + r.host + 1;
  routing_hash_ *= 0x100000001b3ULL;
  hosts_[r.host]->agent(r.local_fn).Submit();
}

Cluster::DepIoTotals Cluster::DepIo() const {
  DepIoTotals t;
  for (const auto& h : hosts_) {
    for (size_t fn = 0; fn < h->function_count(); ++fn) {
      const int32_t file = h->agent(static_cast<int>(fn)).deps_file();
      const GuestKernel& guest =
          static_cast<const FaasRuntime&>(*h).guest(static_cast<int>(fn));
      const PageCache& pc = guest.page_cache();
      t.disk_read_bytes += pc.disk_read_bytes(file);
      t.remote_read_bytes += pc.remote_read_bytes(file);
      t.adopted_bytes += pc.adopted_bytes(file);
    }
  }
  return t;
}

StepSeries Cluster::FleetCommittedSeries() const {
  std::vector<const StepSeries*> parts;
  parts.reserve(hosts_.size());
  for (const auto& h : hosts_) {
    parts.push_back(&h->host().committed_series());
  }
  return SumSeries(parts);
}

FleetSummary Cluster::Summarize(TimeNs horizon) const {
  FleetSummary s;
  s.hosts = hosts_.size();
  std::vector<const LatencyRecorder*> recorders;
  for (const auto& h : hosts_) {
    for (size_t fn = 0; fn < h->function_count(); ++fn) {
      const Agent& agent = h->agent(static_cast<int>(fn));
      recorders.push_back(&agent.latencies());
      s.completed_requests += agent.requests().size();
      s.cold_starts += agent.cold_starts().size();
      s.evictions += agent.total_evictions();
    }
    s.pending_scaleups_total += h->total_pending_scaleups();
    s.unplug_failures += h->total_unplug_failures();
  }
  s.unplaced_invocations = unplaced_;
  s.migrations = migrations_.size();
  s.migrated_instances = migrated_instances_;
  const LatencyRecorder fleet = MergeLatencies(recorders);
  if (!fleet.empty()) {
    s.latency_p50 = fleet.Percentile(50);
    s.latency_p99 = fleet.Percentile(99);
    s.latency_mean = fleet.Mean();
  }
  const StepSeries committed = FleetCommittedSeries();
  s.committed_peak = static_cast<uint64_t>(committed.Max());
  s.committed_gib_seconds =
      committed.IntegralSec(0, horizon) / static_cast<double>(GiB(1));
  return s;
}

}  // namespace squeezy
