#include "harness/probes.hpp"

#include <condition_variable>
#include <mutex>

#include "apps/fib/fib.hpp"
#include "core/closure.hpp"
#include "core/local_runner.hpp"
#include "core/protocol.hpp"
#include "harness/bench.hpp"
#include "net/rpc.hpp"
#include "net/timer_service.hpp"
#include "net/udp_net.hpp"

namespace perfbench {

double probe_local_ns_per_task(
    SpanRecorder& spans,
    const std::function<phish::TaskId(phish::TaskRegistry&)>& register_app,
    const std::vector<std::int64_t>& args, int reps) {
  phish::TaskRegistry registry;
  const phish::TaskId root = register_app(registry);
  std::vector<double> per_task;
  for (int rep = 0; rep < reps; ++rep) {
    phish::LocalRunner runner(registry);
    auto span = spans.open("core.local_runner.run", 0, args.size());
    const double t0 = now_s();
    for (const std::int64_t arg : args) runner.run(root, {phish::Value(arg)});
    const double wall = now_s() - t0;
    span.close();
    per_task.push_back(ratio(wall * 1e9, static_cast<double>(
                                             runner.stats().tasks_executed)));
  }
  return median(per_task);
}

double probe_threads_dispatch(SpanRecorder& spans,
                              const phish::rt::ThreadsConfig& config,
                              int reps) {
  phish::TaskRegistry registry;
  const phish::TaskId root = phish::apps::register_fib(registry, 0);
  phish::rt::ThreadsConfig untraced = config;
  untraced.tracer = nullptr;
  phish::rt::ThreadsRuntime runtime(registry, untraced);
  for (int i = 0; i < 10; ++i) runtime.run(root, {phish::Value(std::int64_t{1})});
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    auto span = spans.open("runtime.threads.dispatch");
    const double t0 = now_s();
    runtime.run(root, {phish::Value(std::int64_t{1})});
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

double probe_serial(SpanRecorder& spans, const std::function<void()>& serial,
                    int reps) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    auto span = spans.open("apps.serial");
    const double t0 = now_s();
    serial();
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

RttProbe probe_rpc_rtt(SpanRecorder& spans, int calls) {
  constexpr std::uint16_t kEcho = 7;
  phish::net::UdpParams params;
  params.base_port = 0;  // ephemeral ports
  phish::net::UdpNetwork network(params);
  phish::net::ThreadTimerService timers;
  phish::net::RpcNode client(network.channel(phish::net::NodeId{1}), timers);
  phish::net::RpcNode server(network.channel(phish::net::NodeId{2}), timers);
  server.serve(kEcho, [](phish::net::NodeId, const phish::Bytes& args) {
    return args;
  });

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<double> rtt_us;
  bool all_ok = true;
  const phish::Bytes payload(32, 0x5a);
  for (int i = 0; i < calls; ++i) {
    bool done = false;
    bool ok = false;
    auto span = spans.open("net.rpc.call");
    const double t0 = now_s();
    client.call(phish::net::NodeId{2}, kEcho, payload,
                [&](phish::net::RpcResult result) {
                  std::lock_guard<std::mutex> lock(mutex);
                  ok = result.ok && result.reply == payload;
                  done = true;
                  cv.notify_one();
                });
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
    const double rtt = now_s() - t0;
    lock.unlock();
    span.close();
    all_ok = all_ok && ok;
    if (ok) rtt_us.push_back(rtt * 1e6);
  }
  const Summary s = summarize(rtt_us);
  return RttProbe{s.p50, s.tail.value, all_ok && s.tail.ok};
}

CodecProbe probe_codec(SpanRecorder& spans, int batches, int per_batch) {
  using phish::Closure;
  using phish::ClosureId;
  using phish::ContRef;
  using phish::Value;
  using phish::net::NodeId;
  // A three-argument closure with a small blob: the shape a stolen fib or
  // pfold continuation takes on the wire.
  Closure closure;
  closure.id = ClosureId{NodeId{3}, 123456};
  closure.task = 7;
  closure.cont = ContRef{ClosureId{NodeId{1}, 42}, 1, NodeId{1}};
  closure.args = {Value(std::int64_t{5}), Value(2.5), Value(phish::Bytes(64))};
  closure.depth = 12;
  const phish::proto::ArgumentMsg argument{
      ContRef{ClosureId{NodeId{1}, 9}, 0, NodeId{1}},
      Value(std::int64_t{77})};

  phish::Writer encoded_writer;
  closure.encode(encoded_writer);
  const phish::Bytes encoded = encoded_writer.take();

  CodecProbe probe;
  probe.ok = true;
  std::vector<double> encode_ns, decode_ns, roundtrip_ns;
  std::uint64_t sink = 0;
  for (int b = 0; b < batches; ++b) {
    {
      auto span = spans.open("serial.closure_encode", 0, per_batch);
      const double t0 = now_s();
      for (int i = 0; i < per_batch; ++i) {
        phish::Writer w;
        closure.encode(w);
        sink += w.bytes().size();
      }
      encode_ns.push_back((now_s() - t0) * 1e9 / per_batch);
    }
    {
      auto span = spans.open("serial.closure_decode", 0, per_batch);
      const double t0 = now_s();
      for (int i = 0; i < per_batch; ++i) {
        phish::Reader r(encoded);
        const Closure back = Closure::decode(r);
        sink += back.id.seq;
      }
      decode_ns.push_back((now_s() - t0) * 1e9 / per_batch);
    }
    {
      auto span = spans.open("serial.argument_roundtrip", 0, per_batch);
      const double t0 = now_s();
      for (int i = 0; i < per_batch; ++i) {
        const phish::Bytes b = argument.encode();
        const auto back = phish::proto::ArgumentMsg::decode(b);
        sink += back ? back->cont.slot + 1 : 0;
      }
      roundtrip_ns.push_back((now_s() - t0) * 1e9 / per_batch);
    }
  }
  // Correctness of what was timed: both codecs give back their input.
  phish::Reader r(encoded);
  const Closure back = Closure::decode(r);
  const auto arg_back = phish::proto::ArgumentMsg::decode(argument.encode());
  probe.ok = back.id == closure.id && back.task == closure.task &&
             back.cont == closure.cont && back.args == closure.args &&
             arg_back && arg_back->cont == argument.cont &&
             arg_back->value == argument.value && sink != 0;
  probe.closure_encode_ns = median(encode_ns);
  probe.closure_decode_ns = median(decode_ns);
  probe.argument_roundtrip_ns = median(roundtrip_ns);
  return probe;
}

}  // namespace perfbench
