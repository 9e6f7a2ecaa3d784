#include "sim/adversary.hpp"

#include <algorithm>

namespace tbft::sim {

AdversaryHook make_partition_until_gst(std::vector<NodeId> group_a, SimTime gst) {
  return [group_a = std::move(group_a), gst](const Envelope& env,
                                             SimTime send_time) -> std::optional<DeliveryDecision> {
    if (send_time >= gst) return std::nullopt;  // defer to the stochastic model
    const bool src_in_a = std::find(group_a.begin(), group_a.end(), env.src) != group_a.end();
    const bool dst_in_a = std::find(group_a.begin(), group_a.end(), env.dst) != group_a.end();
    if (src_in_a != dst_in_a) return DeliveryDecision{.drop = true, .deliver_at = 0};
    return std::nullopt;
  };
}

AdversaryHook make_selective_drop(std::vector<std::uint8_t> tags, std::vector<NodeId> victims,
                                  SimTime gst) {
  return [tags = std::move(tags), victims = std::move(victims), gst](
             const Envelope& env, SimTime send_time) -> std::optional<DeliveryDecision> {
    if (send_time >= gst) return std::nullopt;
    if (env.payload.empty()) return std::nullopt;
    const bool tag_match = std::find(tags.begin(), tags.end(), env.payload.front()) != tags.end();
    const bool dst_match = std::find(victims.begin(), victims.end(), env.dst) != victims.end();
    if (tag_match && dst_match) return DeliveryDecision{.drop = true, .deliver_at = 0};
    return std::nullopt;
  };
}

}  // namespace tbft::sim
