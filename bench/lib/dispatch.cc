#include "bench/lib/dispatch.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

namespace tps {
namespace serve {

std::future<SelectionResponse> Submit(SelectionService& service,
                                      SelectionRequest request) {
  auto promise = std::make_shared<std::promise<SelectionResponse>>();
  std::future<SelectionResponse> future = promise->get_future();
  service.Dispatch(
      std::move(request),
      [promise](SelectionResponse response) {
        promise->set_value(std::move(response));
      },
      /*may_run_inline=*/false);
  return future;
}

SelectionResponse Serve(SelectionService& service, SelectionRequest request) {
  struct Answer {
    std::mutex mu;
    std::condition_variable ready;
    std::optional<SelectionResponse> response;
  } answer;
  service.Dispatch(
      std::move(request),
      [&answer](SelectionResponse response) {
        std::lock_guard<std::mutex> lock(answer.mu);
        answer.response = std::move(response);
        answer.ready.notify_one();
      },
      /*may_run_inline=*/true);
  std::unique_lock<std::mutex> lock(answer.mu);
  answer.ready.wait(lock, [&answer] { return answer.response.has_value(); });
  return std::move(*answer.response);
}

}  // namespace serve
}  // namespace tps
