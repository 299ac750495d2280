// Fixture: §4.2 honored — durability first, then the acknowledgment.

fn handle_force(&mut self, client: ClientId, lsn: Lsn) -> Result<()> {
    self.store.force(client)?;
    let ack = Message::NewHighLsn { client, lsn };
    self.net.send(ack);
    Ok(())
}

// The group-commit form: one durability round for the batch, then the
// acks; a failed round acks nobody.
fn flush_forces(&mut self, out: &mut Vec<Packet>) {
    let batch = std::mem::take(&mut self.pending);
    let clients: Vec<ClientId> = batch.iter().map(|(c, _)| *c).collect();
    if self.store.force_batch(&clients).is_err() {
        return;
    }
    for (client, lsn) in batch {
        out.push(Packet::bare(Message::NewHighLsn { client, lsn }));
    }
}
