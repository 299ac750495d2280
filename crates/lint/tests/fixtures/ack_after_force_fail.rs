// Fixture: the §4.2 violation — the ack is built (and sent) before the
// force reaches stable storage.

fn handle_force(&mut self, client: ClientId, lsn: Lsn) {
    let ack = Message::NewHighLsn { client, lsn };
    self.net.send(ack);
    self.store.force(client).ok();
}

// The group-commit form: every client's ack is built before the batch's
// one durability round.
fn flush_forces(&mut self, out: &mut Vec<Packet>) {
    let batch = std::mem::take(&mut self.pending);
    for &(client, lsn) in &batch {
        out.push(Packet::bare(Message::NewHighLsn { client, lsn }));
    }
    let clients: Vec<ClientId> = batch.iter().map(|(c, _)| *c).collect();
    self.store.force_batch(&clients).ok();
}
