#ifndef OD_PERFBENCH_WORKLOADS_H_
#define OD_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// reports_od (od_aware) and reports_blind: Session::Plan + Execute of the
/// 15 warehouse reports from 2 closed-loop clients.
WorkloadResult RunReports(const Args& args, bool od_aware);

/// implies_churn: 2 closed-loop Session::Implies readers against an
/// open-loop Server::Apply writer.
WorkloadResult RunImpliesChurn(const Args& args);

/// discover: 1 closed-loop client calling discovery::DiscoverODs.
WorkloadResult RunDiscover(const Args& args);

}  // namespace perfbench

#endif  // OD_PERFBENCH_WORKLOADS_H_
