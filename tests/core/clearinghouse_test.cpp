// Clearinghouse protocol tests over the simulated network (single-threaded,
// deterministic).
#include "core/clearinghouse.hpp"

#include <gtest/gtest.h>

#include "core/recovery.hpp"
#include "net/sim_net.hpp"

namespace phish {
namespace {

class ClearinghouseTest : public ::testing::Test {
 protected:
  static constexpr net::NodeId kCh{0};

  ClearinghouseTest()
      : network_(sim_, quiet_params()),
        timers_(sim_),
        ch_rpc_(network_.channel(kCh), timers_) {}

  static net::SimNetParams quiet_params() {
    net::SimNetParams p;
    p.jitter = 0;
    return p;
  }

  /// Failure detection re-arms its timer forever, which would keep
  /// sim_.run() from draining; tests not about crash detection disable it.
  static ClearinghouseConfig no_failure_detection() {
    ClearinghouseConfig cfg;
    cfg.detect_failures = false;
    return cfg;
  }

  /// A minimal scripted worker node.  Death notices and new-primary
  /// announcements arrive on the acked kRpcControl path.
  struct FakeWorker {
    net::RpcNode rpc;
    std::vector<std::uint16_t> received_types;
    std::vector<net::NodeId> dead_notices;
    std::vector<std::pair<net::NodeId, std::uint64_t>> new_primaries;
    std::vector<std::uint64_t> retired_migrations;

    FakeWorker(net::SimNetwork& network, net::TimerService& timers,
               net::NodeId id)
        : rpc(network.channel(id), timers) {
      rpc.set_oneway_handler([this](net::Message&& m) {
        received_types.push_back(m.type);
      });
      rpc.serve(proto::kRpcControl, [this](net::NodeId, const Bytes& args) {
        if (auto msg = proto::ControlMsg::decode(args)) {
          if (msg->kind == proto::ControlMsg::kDeadNotice) {
            dead_notices.push_back(msg->who);
          } else if (msg->kind == proto::ControlMsg::kNewPrimary) {
            new_primaries.emplace_back(msg->who, msg->view);
          } else if (msg->kind == proto::ControlMsg::kMigrationRetired) {
            retired_migrations.push_back(msg->view);
          }
        }
        return Bytes{};
      });
    }

    /// incarnation 0 = legacy empty registration payload.
    void register_with(net::NodeId ch, proto::Membership* out = nullptr,
                       std::uint32_t incarnation = 0) {
      const Bytes payload =
          incarnation == 0 ? Bytes{}
                           : proto::RegisterMsg{incarnation}.encode();
      rpc.call(ch, proto::kRpcRegister, payload, [out](net::RpcResult r) {
        ASSERT_TRUE(r.ok);
        if (out) {
          auto m = proto::Membership::decode(r.reply);
          ASSERT_TRUE(m.has_value());
          *out = *m;
        }
      });
    }
    void heartbeat(net::NodeId ch) {
      rpc.send_oneway(ch, proto::kHeartbeat, {});
    }
  };

  sim::Simulator sim_;
  net::SimNetwork network_;
  net::SimTimerService timers_;
  net::RpcNode ch_rpc_;
};

TEST_F(ClearinghouseTest, RegistrationBuildsMembership) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});

  proto::Membership m1, m2;
  w1.register_with(kCh, &m1);
  sim_.run();
  w2.register_with(kCh, &m2);
  sim_.run();

  EXPECT_EQ(m1.participants.size(), 1u);
  EXPECT_EQ(m2.participants.size(), 2u);
  EXPECT_GT(m2.epoch, m1.epoch);
  EXPECT_EQ(ch.membership().participants.size(), 2u);
}

TEST_F(ClearinghouseTest, DuplicateRegistrationIsIdempotent) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  w1.register_with(kCh);
  sim_.run();
  const std::uint64_t epoch = ch.membership().epoch;
  w1.register_with(kCh);
  sim_.run();
  EXPECT_EQ(ch.membership().participants.size(), 1u);
  EXPECT_EQ(ch.membership().epoch, epoch) << "no change, no epoch bump";
}

TEST_F(ClearinghouseTest, UnregisterRemoves) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  w1.register_with(kCh);
  sim_.run();
  w1.rpc.call(kCh, proto::kRpcUnregister, {}, [](net::RpcResult) {});
  sim_.run();
  EXPECT_TRUE(ch.membership().participants.empty());
}

TEST_F(ClearinghouseTest, ResultTriggersShutdownBroadcast) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  w1.register_with(kCh);
  w2.register_with(kCh);
  sim_.run();

  std::optional<Value> callback_value;
  ch.set_on_result([&](const Value& v) { callback_value = v; });

  const proto::ArgumentMsg arg{clearinghouse_continuation(kCh),
                               Value(std::int64_t{42})};
  w1.rpc.send_oneway(kCh, proto::kArgument, arg.encode());
  sim_.run();

  ASSERT_TRUE(ch.result().has_value());
  EXPECT_EQ(ch.result()->as_int(), 42);
  ASSERT_TRUE(callback_value.has_value());
  EXPECT_EQ(callback_value->as_int(), 42);
  EXPECT_EQ(std::count(w1.received_types.begin(), w1.received_types.end(),
                       proto::kShutdown),
            1);
  EXPECT_EQ(std::count(w2.received_types.begin(), w2.received_types.end(),
                       proto::kShutdown),
            1);
}

TEST_F(ClearinghouseTest, DuplicateResultIgnored) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  w1.register_with(kCh);
  sim_.run();
  const auto cont = clearinghouse_continuation(kCh);
  w1.rpc.send_oneway(kCh, proto::kArgument,
                     proto::ArgumentMsg{cont, Value(std::int64_t{1})}.encode());
  sim_.run();
  w1.rpc.send_oneway(kCh, proto::kArgument,
                     proto::ArgumentMsg{cont, Value(std::int64_t{2})}.encode());
  sim_.run();
  EXPECT_EQ(ch.result()->as_int(), 1) << "redo duplicates must not overwrite";
}

TEST_F(ClearinghouseTest, HeartbeatTimeoutDeclaresDeath) {
  ClearinghouseConfig cfg;
  cfg.heartbeat_timeout_ns = 3 * sim::kSecond;
  cfg.failure_check_period_ns = sim::kSecond;
  Clearinghouse ch(ch_rpc_, timers_, cfg);
  ch.start();

  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  w1.register_with(kCh);
  w2.register_with(kCh);
  // The failure detector re-arms forever, so drive bounded slices of time
  // rather than draining the queue.
  sim_.run_until(100 * sim::kMillisecond);

  std::vector<net::NodeId> deaths;
  ch.set_on_death([&](net::NodeId n) { deaths.push_back(n); });

  // w2 heartbeats; w1 goes silent.
  for (int t = 1; t <= 10; ++t) {
    sim_.schedule_at(static_cast<sim::SimTime>(t) * sim::kSecond,
                     [&] { w2.heartbeat(kCh); });
  }
  sim_.run_until(8 * sim::kSecond);

  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0], (net::NodeId{1}));
  EXPECT_EQ(ch.membership().participants.size(), 1u);
  EXPECT_EQ(ch.declared_dead().size(), 1u);
  // The survivor was told.
  EXPECT_EQ(w2.dead_notices.size(), 1u);
  EXPECT_EQ(w2.dead_notices[0], (net::NodeId{1}));
  // The dead worker is not told (it is dead).
  EXPECT_TRUE(w1.dead_notices.empty());
}

TEST_F(ClearinghouseTest, FailureDetectionDisabled) {
  ClearinghouseConfig cfg;
  cfg.detect_failures = false;
  Clearinghouse ch(ch_rpc_, timers_, cfg);
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  w1.register_with(kCh);
  sim_.run();
  sim_.run_until(60 * sim::kSecond);
  EXPECT_EQ(ch.membership().participants.size(), 1u) << "never declared dead";
}

TEST_F(ClearinghouseTest, CollectsStatsReports) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  proto::StatsMsg msg;
  msg.who = net::NodeId{1};
  msg.stats.tasks_executed = 12345;
  msg.start_ns = 10;
  msg.end_ns = 99;
  w1.rpc.send_oneway(kCh, proto::kStatsReport, msg.encode());
  sim_.run();
  const auto reports = ch.stats_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].who, (net::NodeId{1}));
  EXPECT_EQ(reports[0].stats.tasks_executed, 12345u);
  EXPECT_EQ(reports[0].end_ns, 99u);
}

TEST_F(ClearinghouseTest, CollectsIo) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  w1.rpc.send_oneway(kCh, proto::kIo,
                     proto::IoMsg{net::NodeId{1}, "hello"}.encode());
  w1.rpc.send_oneway(kCh, proto::kIo,
                     proto::IoMsg{net::NodeId{1}, "world"}.encode());
  sim_.run();
  const auto log = ch.io_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].text, "hello");
  EXPECT_EQ(log[1].text, "world");
}

TEST_F(ClearinghouseTest, MalformedMessagesIgnored) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  w1.rpc.send_oneway(kCh, proto::kArgument, Bytes{1, 2, 3});
  w1.rpc.send_oneway(kCh, proto::kStatsReport, Bytes{});
  w1.rpc.send_oneway(kCh, proto::kIo, Bytes{0xff});
  EXPECT_NO_THROW(sim_.run());
  EXPECT_FALSE(ch.result().has_value());
  EXPECT_TRUE(ch.stats_reports().empty());
}

TEST_F(ClearinghouseTest, ReplicationMirrorsStateToStandby) {
  ClearinghouseConfig cfg;
  cfg.detect_failures = false;
  cfg.replicate_period_ns = 100 * sim::kMillisecond;
  Clearinghouse primary(ch_rpc_, timers_, cfg);
  net::RpcNode backup_rpc(network_.channel(net::NodeId{9}), timers_);
  Clearinghouse backup(backup_rpc, timers_, cfg);
  primary.start();
  backup.start_standby(kCh);
  primary.set_standby(net::NodeId{9});

  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  w1.register_with(kCh);
  w2.register_with(kCh);
  sim_.run_until(50 * sim::kMillisecond);
  w1.rpc.send_oneway(kCh, proto::kIo,
                     proto::IoMsg{net::NodeId{1}, "hello"}.encode());
  // The replicate timer re-arms forever; drive a bounded slice.
  sim_.run_until(sim::kSecond);

  EXPECT_EQ(backup.role(), Clearinghouse::Role::kStandby);
  EXPECT_EQ(backup.membership().participants.size(), 2u);
  EXPECT_EQ(backup.membership().epoch, primary.membership().epoch);
  const auto log = backup.io_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].text, "hello");
  primary.stop();
  backup.stop();
}

TEST_F(ClearinghouseTest, StandbyPromotesWhenPrimaryHalts) {
  ClearinghouseConfig cfg;
  cfg.detect_failures = false;
  cfg.replicate_period_ns = 100 * sim::kMillisecond;
  cfg.lease_timeout_ns = 500 * sim::kMillisecond;
  cfg.lease_check_period_ns = 100 * sim::kMillisecond;
  Clearinghouse primary(ch_rpc_, timers_, cfg);
  net::RpcNode backup_rpc(network_.channel(net::NodeId{9}), timers_);
  Clearinghouse backup(backup_rpc, timers_, cfg);
  RecoveryTracker tracker;
  backup.set_recovery_tracker(&tracker);
  primary.start();
  backup.start_standby(kCh);
  primary.set_standby(net::NodeId{9});

  FakeWorker w1(network_, timers_, net::NodeId{1});
  w1.register_with(kCh);
  sim_.run_until(sim::kSecond);
  ASSERT_EQ(backup.membership().participants.size(), 1u);

  sim_.schedule_at(2 * sim::kSecond, [&] { primary.halt(); });
  sim_.run_until(5 * sim::kSecond);

  EXPECT_TRUE(backup.acting_primary());
  EXPECT_EQ(backup.view(), 2u);
  // Participants were told who the new coordinator is, reliably.
  ASSERT_FALSE(w1.new_primaries.empty());
  EXPECT_EQ(w1.new_primaries.back().first, (net::NodeId{9}));
  EXPECT_EQ(w1.new_primaries.back().second, 2u);
  const auto snap = tracker.snapshot();
  EXPECT_GE(snap.detects, 1u);
  EXPECT_EQ(snap.promotions, 1u);
  backup.stop();
}

TEST_F(ClearinghouseTest, RejoinWithHigherIncarnationImpliesDeath) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  RecoveryTracker tracker;
  ch.set_recovery_tracker(&tracker);
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  w1.register_with(kCh, nullptr, 1);
  w2.register_with(kCh, nullptr, 1);
  sim_.run();
  const std::uint64_t epoch_before = ch.membership().epoch;

  // w1 crashes and comes back before the failure detector would notice.
  proto::Membership m;
  w1.register_with(kCh, &m, 2);
  sim_.run();

  // The old incarnation is implicitly dead: survivors are told (so they
  // redo its stolen work), then the replacement is admitted.
  ASSERT_EQ(w2.dead_notices.size(), 1u);
  EXPECT_EQ(w2.dead_notices[0], (net::NodeId{1}));
  EXPECT_EQ(ch.membership().participants.size(), 2u);
  EXPECT_GT(ch.membership().epoch, epoch_before);
  EXPECT_EQ(ch.declared_dead().size(), 1u);
  EXPECT_GE(tracker.snapshot().rejoins, 1u);
  EXPECT_EQ(m.participants.size(), 2u);
}

TEST_F(ClearinghouseTest, StaleIncarnationRegisterDoesNotResurrect) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  w1.register_with(kCh, nullptr, 2);
  w2.register_with(kCh, nullptr, 1);
  sim_.run();
  const std::uint64_t epoch = ch.membership().epoch;

  // A delayed register from incarnation 1 must not disturb incarnation 2.
  w1.register_with(kCh, nullptr, 1);
  sim_.run();
  EXPECT_EQ(ch.membership().participants.size(), 2u);
  EXPECT_EQ(ch.membership().epoch, epoch);
  EXPECT_TRUE(w2.dead_notices.empty());
}

TEST_F(ClearinghouseTest, StaleIncarnationUnregisterDoesNotRemove) {
  // Incarnation 1's unregister, retransmitted across its crash and the
  // rejoin of incarnation 2, must not remove the live incarnation: nothing
  // would then declare it dead when it crashes holding stolen work.
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  w1.register_with(kCh, nullptr, 1);
  sim_.run();
  w1.register_with(kCh, nullptr, 2);
  sim_.run();
  const std::uint64_t epoch = ch.membership().epoch;

  w1.rpc.call(kCh, proto::kRpcUnregister, proto::UnregisterMsg{1}.encode(),
              [](net::RpcResult) {});
  sim_.run();
  EXPECT_EQ(ch.membership().participants,
            (std::vector<net::NodeId>{net::NodeId{1}}));
  EXPECT_EQ(ch.membership().epoch, epoch);

  // The live incarnation's own unregister still removes it.
  w1.rpc.call(kCh, proto::kRpcUnregister, proto::UnregisterMsg{2}.encode(),
              [](net::RpcResult) {});
  sim_.run();
  EXPECT_TRUE(ch.membership().participants.empty());
}

TEST_F(ClearinghouseTest, PromotedStandbyIgnoresStaleUnregister) {
  // The standby learns the incarnation map from the primary's deltas, so
  // after a promotion it applies the same check.
  ClearinghouseConfig cfg;
  cfg.detect_failures = false;
  cfg.replicate_period_ns = 100 * sim::kMillisecond;
  Clearinghouse primary(ch_rpc_, timers_, cfg);
  net::RpcNode backup_rpc(network_.channel(net::NodeId{9}), timers_);
  Clearinghouse backup(backup_rpc, timers_, cfg);
  primary.start();
  backup.start_standby(kCh);
  primary.set_standby(net::NodeId{9});

  FakeWorker w1(network_, timers_, net::NodeId{1});
  w1.register_with(kCh, nullptr, 1);
  sim_.run_until(100 * sim::kMillisecond);
  w1.register_with(kCh, nullptr, 2);
  sim_.run_until(sim::kSecond);
  primary.halt();
  backup.promote();
  ASSERT_TRUE(backup.acting_primary());

  w1.rpc.call(net::NodeId{9}, proto::kRpcUnregister,
              proto::UnregisterMsg{1}.encode(), [](net::RpcResult) {});
  sim_.run_until(2 * sim::kSecond);
  EXPECT_EQ(backup.membership().participants,
            (std::vector<net::NodeId>{net::NodeId{1}}));
  backup.stop();
}

/// A minimal migratable closure: id-addressable, no pending arguments.
Closure make_cargo(std::uint32_t origin, std::uint64_t seq) {
  Closure c;
  c.id = ClosureId{net::NodeId{origin}, seq};
  c.task = TaskId{1};
  return c;
}

TEST_F(ClearinghouseTest, MigrationLedgerRedeliversWhenHolderDies) {
  // The tentpole guarantee, end to end at the protocol level: a departing
  // worker registers its cargo, hands it to a successor, confirms the
  // holder, and unregisters.  When the successor later dies, the
  // Clearinghouse must redeliver the registered cargo to a surviving
  // worker — the inherited closures appear in no steal ledger, so nothing
  // else can redo them.
  ClearinghouseConfig cfg;
  cfg.heartbeat_timeout_ns = 3 * sim::kSecond;
  cfg.failure_check_period_ns = sim::kSecond;
  Clearinghouse ch(ch_rpc_, timers_, cfg);
  RecoveryTracker tracker;
  ch.set_recovery_tracker(&tracker);
  ch.start();

  FakeWorker w1(network_, timers_, net::NodeId{1});  // departing origin
  FakeWorker w2(network_, timers_, net::NodeId{2});  // successor, will die
  FakeWorker w3(network_, timers_, net::NodeId{3});  // survivor
  std::vector<proto::MigrateMsg> at_w3;
  w3.rpc.serve(proto::kRpcMigrate, [&](net::NodeId, const Bytes& args) {
    auto m = proto::MigrateMsg::decode(args);
    if (m) at_w3.push_back(*m);
    Writer accept;
    accept.boolean(true);
    return accept.take();
  });
  std::size_t at_w2 = 0;
  w2.rpc.serve(proto::kRpcMigrate, [&](net::NodeId, const Bytes&) {
    ++at_w2;
    Writer accept;
    accept.boolean(true);
    return accept.take();
  });
  w1.register_with(kCh, nullptr, 1);
  w2.register_with(kCh, nullptr, 1);
  w3.register_with(kCh, nullptr, 1);
  sim_.run_until(100 * sim::kMillisecond);

  // w1's durability handshake: register (holder = self), then confirm the
  // successor, then retire.
  const std::uint64_t mid = (1ull << 32) | 1;
  proto::MigrationLedgerMsg reg;
  reg.migration_id = mid;
  reg.from = net::NodeId{1};
  reg.holder = net::NodeId{1};
  reg.closures = {make_cargo(1, 7), make_cargo(1, 8)};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, reg.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run_until(200 * sim::kMillisecond);
  proto::MigrationLedgerMsg upd;
  upd.migration_id = mid;
  upd.from = net::NodeId{1};
  upd.holder = net::NodeId{2};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, upd.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run_until(300 * sim::kMillisecond);
  w1.rpc.call(kCh, proto::kRpcUnregister, {}, [](net::RpcResult) {});
  sim_.run_until(400 * sim::kMillisecond);
  ASSERT_EQ(ch.migration_ledger_size(), 1u)
      << "the origin's graceful unregister must not retire an entry it "
         "already handed to a successor";

  // w3 stays alive; w2 (the holder) goes silent and is declared dead.
  for (int t = 1; t <= 10; ++t) {
    sim_.schedule_at(static_cast<sim::SimTime>(t) * sim::kSecond,
                     [&] { w3.heartbeat(kCh); });
  }
  sim_.run_until(8 * sim::kSecond);

  ASSERT_EQ(at_w3.size(), 1u) << "cargo must be redelivered to the survivor";
  EXPECT_EQ(at_w2, 0u);
  EXPECT_TRUE(at_w3[0].redelivery);
  EXPECT_EQ(at_w3[0].migration_id, mid);
  EXPECT_EQ(at_w3[0].from, (net::NodeId{1}));
  EXPECT_EQ(at_w3[0].closures.size(), 2u);
  EXPECT_EQ(at_w3[0].closures[0].id.seq, 7u);
  EXPECT_EQ(tracker.snapshot().migration_redo, 2u);
  EXPECT_EQ(ch.migration_ledger_size(), 1u)
      << "the entry survives with the new holder: if the survivor dies "
         "too, the cargo is redelivered again";
}

TEST_F(ClearinghouseTest, MigrationLedgerDropsEntriesWhoseOriginDied) {
  // Mid-handshake crash of the migrating worker itself (holder == origin):
  // the victims' incarnation-blind death-redo already re-executes everything
  // the origin held, and redelivered fills routed through its forwarding
  // stub could never complete — the entry must be dropped, not redelivered.
  ClearinghouseConfig cfg;
  cfg.heartbeat_timeout_ns = 3 * sim::kSecond;
  cfg.failure_check_period_ns = sim::kSecond;
  Clearinghouse ch(ch_rpc_, timers_, cfg);
  RecoveryTracker tracker;
  ch.set_recovery_tracker(&tracker);
  ch.start();

  FakeWorker w1(network_, timers_, net::NodeId{1});  // dies mid-handshake
  FakeWorker w2(network_, timers_, net::NodeId{2});  // survivor
  std::size_t at_w2 = 0;
  w2.rpc.serve(proto::kRpcMigrate, [&](net::NodeId, const Bytes&) {
    ++at_w2;
    Writer accept;
    accept.boolean(true);
    return accept.take();
  });
  w1.register_with(kCh, nullptr, 1);
  w2.register_with(kCh, nullptr, 1);
  sim_.run_until(100 * sim::kMillisecond);

  proto::MigrationLedgerMsg reg;
  reg.migration_id = (1ull << 32) | 1;
  reg.from = net::NodeId{1};
  reg.holder = net::NodeId{1};
  reg.closures = {make_cargo(1, 7)};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, reg.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run_until(200 * sim::kMillisecond);
  ASSERT_EQ(ch.migration_ledger_size(), 1u);

  // w1 goes silent before confirming any successor.
  for (int t = 1; t <= 10; ++t) {
    sim_.schedule_at(static_cast<sim::SimTime>(t) * sim::kSecond,
                     [&] { w2.heartbeat(kCh); });
  }
  sim_.run_until(8 * sim::kSecond);

  EXPECT_EQ(ch.migration_ledger_size(), 0u);
  EXPECT_EQ(at_w2, 0u) << "dead-origin cargo must not be redelivered";
  EXPECT_EQ(tracker.snapshot().migration_redo, 0u);
}

TEST_F(ClearinghouseTest, MigrationLedgerRetiredByHolderUnregister) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  w1.register_with(kCh, nullptr, 1);
  w2.register_with(kCh, nullptr, 1);
  sim_.run();

  proto::MigrationLedgerMsg reg;
  reg.migration_id = (1ull << 32) | 1;
  reg.from = net::NodeId{1};
  reg.holder = net::NodeId{1};
  reg.closures = {make_cargo(1, 7)};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, reg.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run();
  proto::MigrationLedgerMsg upd;
  upd.migration_id = reg.migration_id;
  upd.from = net::NodeId{1};
  upd.holder = net::NodeId{2};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, upd.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run();
  ASSERT_EQ(ch.migration_ledger_size(), 1u);

  // The holder finishing the inherited cargo and leaving gracefully is the
  // normal end of the entry's life.
  w2.rpc.call(kCh, proto::kRpcUnregister, {}, [](net::RpcResult) {});
  sim_.run();
  EXPECT_EQ(ch.migration_ledger_size(), 0u);
  // The origin's forwarding stub hears about the retirement, so it can stop
  // retaining the fill log it kept for a possible kReroute replay.
  ASSERT_EQ(w1.retired_migrations.size(), 1u);
  EXPECT_EQ(w1.retired_migrations[0], reg.migration_id);
}

TEST_F(ClearinghouseTest, MigrationLedgerIgnoresStaleRegistrationReplay) {
  // A reordered or duplicated frame of the ORIGINAL registration
  // (holder == from) arriving after the step-3 confirm must not re-point
  // the holder back to the origin: the origin's subsequent graceful
  // unregister would then retire the entry and strand the successor's
  // inherited cargo — the exact window the ledger exists to close.
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  w1.register_with(kCh, nullptr, 1);
  w2.register_with(kCh, nullptr, 1);
  sim_.run();

  const std::uint64_t mid = (1ull << 32) | 1;
  proto::MigrationLedgerMsg reg;
  reg.migration_id = mid;
  reg.from = net::NodeId{1};
  reg.holder = net::NodeId{1};
  reg.closures = {make_cargo(1, 7)};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, reg.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run();
  proto::MigrationLedgerMsg upd;
  upd.migration_id = mid;
  upd.from = net::NodeId{1};
  upd.holder = net::NodeId{2};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, upd.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run();

  // The late duplicate of the registration (e.g. a retransmit that missed
  // the RPC reply cache).  It must be acked — the caller only needs the
  // original's outcome — but applied as a no-op.
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, reg.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run();
  ASSERT_EQ(ch.migration_ledger_size(), 1u);

  w1.rpc.call(kCh, proto::kRpcUnregister, {}, [](net::RpcResult) {});
  sim_.run();
  EXPECT_EQ(ch.migration_ledger_size(), 1u)
      << "a stale registration replay re-pointed the holder to the origin, "
         "and the origin's unregister retired the successor's cargo";
}

TEST_F(ClearinghouseTest, SupersedingRegistrationNotifiesRetiredOrigin) {
  // When a holder drains everything it owns (including adopted cargo) into
  // a new registration, the subsumed entries' origins must hear a
  // retirement notice so their stubs can release the replay fill logs.
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  FakeWorker w3(network_, timers_, net::NodeId{3});
  w1.register_with(kCh, nullptr, 1);
  w2.register_with(kCh, nullptr, 1);
  w3.register_with(kCh, nullptr, 1);
  sim_.run();

  // w1 migrates to w2 (register + confirm).
  const std::uint64_t mid1 = (1ull << 32) | 1;
  proto::MigrationLedgerMsg reg;
  reg.migration_id = mid1;
  reg.from = net::NodeId{1};
  reg.holder = net::NodeId{1};
  reg.closures = {make_cargo(1, 7)};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, reg.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run();
  proto::MigrationLedgerMsg upd;
  upd.migration_id = mid1;
  upd.from = net::NodeId{1};
  upd.holder = net::NodeId{2};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, upd.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run();

  // w2 now departs too: its registration drains everything it holds —
  // including w1's adopted cargo, re-snapshotted with all fills applied —
  // which supersedes and retires mid1.
  proto::MigrationLedgerMsg reg2;
  reg2.migration_id = (2ull << 32) | 1;
  reg2.from = net::NodeId{2};
  reg2.holder = net::NodeId{2};
  reg2.closures = {make_cargo(1, 7), make_cargo(2, 3)};
  w2.rpc.call(kCh, proto::kRpcMigrateLedger, reg2.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run();

  ASSERT_EQ(ch.migration_ledger_size(), 1u) << "mid1 subsumed by w2's drain";
  ASSERT_EQ(w1.retired_migrations.size(), 1u);
  EXPECT_EQ(w1.retired_migrations[0], mid1);
}

TEST_F(ClearinghouseTest, MigrationLedgerReplicatedToStandby) {
  // Redo ownership must survive a coordinator failover: the standby
  // receives the migration ledger in every replication delta and keeps it
  // across promotion.
  ClearinghouseConfig cfg;
  cfg.detect_failures = false;
  cfg.replicate_period_ns = 100 * sim::kMillisecond;
  cfg.lease_timeout_ns = 500 * sim::kMillisecond;
  cfg.lease_check_period_ns = 100 * sim::kMillisecond;
  Clearinghouse primary(ch_rpc_, timers_, cfg);
  net::RpcNode backup_rpc(network_.channel(net::NodeId{9}), timers_);
  Clearinghouse backup(backup_rpc, timers_, cfg);
  primary.start();
  backup.start_standby(kCh);
  primary.set_standby(net::NodeId{9});

  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  w1.register_with(kCh, nullptr, 1);
  w2.register_with(kCh, nullptr, 1);
  sim_.run_until(50 * sim::kMillisecond);
  proto::MigrationLedgerMsg reg;
  reg.migration_id = (1ull << 32) | 1;
  reg.from = net::NodeId{1};
  reg.holder = net::NodeId{2};
  reg.closures = {make_cargo(1, 7)};
  w1.rpc.call(kCh, proto::kRpcMigrateLedger, reg.encode(),
              [](net::RpcResult r) { ASSERT_TRUE(r.ok); });
  sim_.run_until(sim::kSecond);
  EXPECT_EQ(backup.migration_ledger_size(), 1u);

  sim_.schedule_at(2 * sim::kSecond, [&] { primary.halt(); });
  sim_.run_until(5 * sim::kSecond);
  ASSERT_TRUE(backup.acting_primary());
  EXPECT_EQ(backup.migration_ledger_size(), 1u)
      << "a live holder's entry must survive promotion";
  backup.stop();
}

TEST_F(ClearinghouseTest, MembershipChangeCallback) {
  Clearinghouse ch(ch_rpc_, timers_, no_failure_detection());
  ch.start();
  std::vector<std::size_t> sizes;
  ch.set_on_membership_change([&](std::size_t n) { sizes.push_back(n); });
  FakeWorker w1(network_, timers_, net::NodeId{1});
  FakeWorker w2(network_, timers_, net::NodeId{2});
  w1.register_with(kCh);
  sim_.run();
  w2.register_with(kCh);
  sim_.run();
  w1.rpc.call(kCh, proto::kRpcUnregister, {}, [](net::RpcResult) {});
  sim_.run();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 2, 1}));
}

}  // namespace
}  // namespace phish
