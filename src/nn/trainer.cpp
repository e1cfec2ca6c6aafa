#include "nn/trainer.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "nn/loss.h"
#include "nn/tape.h"
#include "tensor/ops.h"
#include "util/threadpool.h"

namespace con::nn {

using tensor::Index;
using tensor::Tensor;

namespace {

// Gather rows `idx[lo..hi)` of the dataset into a contiguous batch.
Tensor gather_batch(const Tensor& images, const std::vector<Index>& order,
                    std::size_t lo, std::size_t hi) {
  std::vector<Index> dims = images.shape().dims();
  dims[0] = static_cast<Index>(hi - lo);
  Tensor batch{tensor::Shape{std::move(dims)}};
  for (std::size_t i = lo; i < hi; ++i) {
    tensor::set_batch(batch, static_cast<Index>(i - lo),
                      tensor::slice_batch(images, order[i]));
  }
  return batch;
}

std::vector<int> gather_labels(const std::vector<int>& labels,
                               const std::vector<Index>& order, std::size_t lo,
                               std::size_t hi) {
  std::vector<int> out;
  out.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    out.push_back(labels[static_cast<std::size_t>(order[i])]);
  }
  return out;
}

void check_dataset(const Tensor& images, const std::vector<int>& labels) {
  if (images.rank() < 2) {
    throw std::invalid_argument("train: images must be batched (rank >= 2)");
  }
  if (static_cast<std::size_t>(images.dim(0)) != labels.size()) {
    throw std::invalid_argument("train: image/label count mismatch");
  }
  if (labels.empty()) throw std::invalid_argument("train: empty dataset");
}

}  // namespace

TrainStats train_classifier(Sequential& model, const Tensor& images,
                            const std::vector<int>& labels,
                            const TrainConfig& config,
                            const PostStepHook& post_step) {
  check_dataset(images, labels);
  const Index n = images.dim(0);

  Sgd optimizer(model.parameters(),
                SgdConfig{.learning_rate = config.base_lr,
                          .momentum = config.momentum,
                          .weight_decay = config.weight_decay});
  StepLrSchedule schedule =
      StepLrSchedule::paper_schedule(config.base_lr, config.epochs);

  con::util::Rng rng(config.shuffle_seed);
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});

  TrainStats stats;
  int global_step = 0;
  // One tape for the whole loop: slot storage is recycled across steps.
  ForwardTape tape(/*accumulate_param_grads=*/true);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.use_paper_lr_schedule) {
      optimizer.set_learning_rate(schedule.lr_at_epoch(epoch));
    }
    // Fisher-Yates shuffle from the experiment-seeded stream.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    double epoch_loss = 0.0;
    int epoch_batches = 0;
    for (std::size_t lo = 0; lo < order.size();
         lo += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t hi =
          std::min(order.size(), lo + static_cast<std::size_t>(config.batch_size));
      Tensor batch = gather_batch(images, order, lo, hi);
      std::vector<int> batch_labels = gather_labels(labels, order, lo, hi);

      model.zero_grad();
      Tensor logits = model.forward(batch, /*train=*/true, tape);
      LossResult loss = softmax_cross_entropy(logits, batch_labels);
      model.backward(loss.grad_logits, tape);
      optimizer.step();

      epoch_loss += loss.loss;
      ++epoch_batches;
      ++global_step;
      if (post_step) {
        post_step(StepContext{.epoch = epoch,
                              .step_in_epoch = epoch_batches - 1,
                              .global_step = global_step,
                              .loss = loss.loss});
      }
    }
    stats.epoch_losses.push_back(
        static_cast<float>(epoch_loss / std::max(1, epoch_batches)));
  }
  stats.steps = global_step;
  return stats;
}

std::vector<int> predict(const Sequential& model, const Tensor& images,
                         int batch_size) {
  const Index n = images.dim(0);
  std::vector<int> preds(static_cast<std::size_t>(n));
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  const std::size_t num_batches = static_cast<std::size_t>(
      (n + batch_size - 1) / batch_size);
  // Eval-mode forward on a shared model is thread-safe (see nn/layer.h);
  // every batch writes only its own slots of `preds`.
  util::parallel_for(0, num_batches, [&](std::size_t b) {
    const Index lo = static_cast<Index>(b) * batch_size;
    const Index hi = std::min(n, lo + batch_size);
    Tensor batch = gather_batch(images, order, static_cast<std::size_t>(lo),
                                static_cast<std::size_t>(hi));
    ForwardTape tape(/*accumulate_param_grads=*/false);
    Tensor logits = model.forward(batch, /*train=*/false, tape);
    for (Index i = lo; i < hi; ++i) {
      preds[static_cast<std::size_t>(i)] =
          static_cast<int>(tensor::argmax_row(logits, i - lo));
    }
  });
  return preds;
}

double evaluate_accuracy(const Sequential& model, const Tensor& images,
                         const std::vector<int>& labels, int batch_size) {
  check_dataset(images, labels);
  std::vector<int> preds = predict(model, images, batch_size);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

double evaluate_loss(const Sequential& model, const Tensor& images,
                     const std::vector<int>& labels, int batch_size) {
  check_dataset(images, labels);
  const Index n = images.dim(0);
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  const std::size_t num_batches = static_cast<std::size_t>(
      (n + batch_size - 1) / batch_size);
  std::vector<double> partial(num_batches, 0.0);
  util::parallel_for(0, num_batches, [&](std::size_t b) {
    const Index lo = static_cast<Index>(b) * batch_size;
    const Index hi = std::min(n, lo + batch_size);
    Tensor batch = gather_batch(images, order, static_cast<std::size_t>(lo),
                                static_cast<std::size_t>(hi));
    std::vector<int> batch_labels(labels.begin() + lo, labels.begin() + hi);
    ForwardTape tape(/*accumulate_param_grads=*/false);
    Tensor logits = model.forward(batch, /*train=*/false, tape);
    LossResult loss = softmax_cross_entropy(logits, batch_labels);
    partial[b] = static_cast<double>(loss.loss) * static_cast<double>(hi - lo);
  });
  // Reduce in fixed batch order so the sum is thread-count invariant.
  double total = 0.0;
  for (double p : partial) total += p;
  return total / static_cast<double>(n);
}

}  // namespace con::nn
