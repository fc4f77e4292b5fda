#include "mutex/ricart_agrawala.h"

namespace dqme::mutex {

using net::Message;
using net::MsgType;

RicartAgrawalaSite::RicartAgrawalaSite(SiteId id, net::Executor& net,
                                       LockId num_locks)
    : MutexSite(id, net, num_locks), lk_(static_cast<size_t>(num_locks)) {}

void RicartAgrawalaSite::do_request(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.my_req = ReqId{tick(lock), id()};
  open_span(lock, span_of(L.my_req));
  L.pending_replies = net().size() - 1;
  for (SiteId j = 0; j < net().size(); ++j)
    if (j != id()) net().send(id(), j, net::make_request(L.my_req), lock);
  if (L.pending_replies == 0) enter_cs(lock);  // N == 1
}

void RicartAgrawalaSite::do_release(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.my_req = ReqId{};
  for (SiteId j : L.deferred)
    net().send(id(), j, net::make_reply(id(), ReqId{}), lock);
  L.deferred.clear();
}

void RicartAgrawalaSite::on_message(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  observe(lock, m.req.seq);
  switch (m.type) {
    case MsgType::kRequest: {
      // Grant unless we are in the CS, or we are requesting with higher
      // priority than the incoming request.
      const bool we_win =
          in_cs(lock) || (requesting(lock) && L.my_req < m.req);
      if (we_win)
        L.deferred.push_back(m.src);
      else
        net().send(id(), m.src, net::make_reply(id(), m.req), lock);
      break;
    }
    case MsgType::kReply: {
      if (!requesting(lock)) {
        note_stale_drop();
        break;
      }
      // A reply can be a direct answer (req == my_req) or a deferred one
      // sent at the replier's exit (req invalid). Both are grants: a site
      // only ever has one outstanding request per lock, so no staleness is
      // possible.
      if (--L.pending_replies == 0) enter_cs(lock);
      break;
    }
    default:
      DQME_CHECK_MSG(false, "ricart-agrawala: unexpected " << m);
  }
}

void RicartAgrawalaSite::copy_protocol_state(const MutexSite& other) {
  lk_ = static_cast<const RicartAgrawalaSite&>(other).lk_;
}

}  // namespace dqme::mutex
