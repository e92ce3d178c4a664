//! Rendezvous: the CTS → payload half of a transfer above the eager limit
//! (the RTS leaves through the send path, the match through `matching`).

use super::*;

impl Pml {
    pub(super) fn on_cts(&self, cts: Cts) {
        let entry = self.state.lock().rdv.sends.remove(&cts.send_req);
        let Some(mut rdv) = entry else { return };
        let len = rdv.payload.len();
        let head = Bytes::copy_from_slice(&RdvData(cts.recv_req).encode());
        let ctx = obs::trace::current_context();
        match self.sender.send_parts(rdv.dst_ep, head, rdv.payload, ctx) {
            Ok(()) => {
                if let Some(mut sp) = rdv.span.take() {
                    sp.add_work(1);
                    sp.end();
                }
                rdv.req.complete_send(len)
            }
            Err(_) => {
                rdv.req.fail(MpiError::new(ErrClass::ProcFailed, "peer died during rendezvous"));
                self.cache_remove(&mut self.state.lock().cache, rdv.dst_ep);
            }
        }
    }

    pub(super) fn on_rdv_data(&self, rdv: RdvData, data: Bytes) {
        let req = self.state.lock().rdv.recvs.remove(&rdv.0);
        if let Some(req) = req {
            let status =
                req.status_snapshot().unwrap_or(Status { source: -1, tag: -1, len: data.len() });
            req.complete_recv(Status { len: data.len(), ..status }, data);
        }
    }
}
