#ifndef TPS_BENCH_LIB_DISPATCH_H_
#define TPS_BENCH_LIB_DISPATCH_H_

#include <future>

#include "serve/service.h"

namespace tps {
namespace serve {

/// SelectionService::Dispatch that never runs inline, answered through a
/// future that always resolves.
std::future<SelectionResponse> Submit(SelectionService& service,
                                      SelectionRequest request);

/// SelectionService::Dispatch that may run inline, blocking until the
/// answer. Returns what Submit's future would resolve to. An inline run
/// or a rejection answers before Dispatch returns, so the uncontended
/// path builds no shared state and never waits.
SelectionResponse Serve(SelectionService& service, SelectionRequest request);

}  // namespace serve
}  // namespace tps

#endif  // TPS_BENCH_LIB_DISPATCH_H_
