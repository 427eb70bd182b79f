//! Microbenchmarks that isolate the commit path.
//!
//! * Commit-storm tables and transactions: each transaction is one
//!   blind update of a private row plus a commit — nothing but log forcing
//!   remains. The latency-anatomy figure (Fig 2) is built on this.
//! * The audited **register workload** for the durability experiments:
//!   each client owns a pair of rows and writes the same monotonically
//!   increasing sequence number to both in one transaction. After a crash,
//!   recovery must show, for every client, both rows equal and at least
//!   the last *acknowledged* sequence — that is invariants I1 and I2 in
//!   directly checkable form.

use rapilog_dbengine::util::{put_u64, Cursor};
use rapilog_dbengine::{Database, DbError, Key, TableDef, TableId};

/// Result alias.
pub type DbResult<T> = Result<T, DbError>;

/// Table definitions for the commit-storm / register workload.
pub fn table_defs(clients: u64) -> Vec<TableDef> {
    vec![TableDef {
        name: "registers".to_string(),
        slot_size: 16,
        max_rows: clients * 2 + 16,
    }]
}

/// Resolves the register table.
pub fn registers_table(db: &Database) -> DbResult<TableId> {
    db.table("registers")
        .ok_or_else(|| DbError::Corrupt("missing registers table".to_string()))
}

/// The two row keys owned by a client.
pub fn register_keys(client: u64) -> (Key, Key) {
    (client * 2, client * 2 + 1)
}

fn encode_seq(seq: u64) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, seq);
    b
}

/// Decodes a register row.
pub fn decode_seq(bytes: &[u8]) -> DbResult<u64> {
    Cursor::new(bytes)
        .u64()
        .ok_or_else(|| DbError::Corrupt("register row".to_string()))
}

/// Inserts the two registers for `client` at sequence 0.
pub async fn init_client(db: &Database, table: TableId, client: u64) -> DbResult<()> {
    let (a, b) = register_keys(client);
    let txn = db.begin().await?;
    db.insert(txn, table, a, &encode_seq(0)).await?;
    db.insert(txn, table, b, &encode_seq(0)).await?;
    db.commit(txn).await
}

/// One audited transaction: write `seq` to both of the client's registers
/// and commit. `Ok(())` = the commit was acknowledged.
pub async fn write_pair(db: &Database, table: TableId, client: u64, seq: u64) -> DbResult<()> {
    let (a, b) = register_keys(client);
    let txn = db.begin().await?;
    macro_rules! tx {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(err) => {
                    let _ = db.abort(txn).await;
                    return Err(err);
                }
            }
        };
    }
    tx!(db.update(txn, table, a, &encode_seq(seq)).await);
    tx!(db.update(txn, table, b, &encode_seq(seq)).await);
    db.commit(txn).await
}

/// Reads both registers of `client` (post-recovery audit).
pub async fn read_pair(db: &Database, table: TableId, client: u64) -> DbResult<(u64, u64)> {
    let (a, b) = register_keys(client);
    let ra = db.get(table, a).await?.ok_or(DbError::NotFound(table, a))?;
    let rb = db.get(table, b).await?.ok_or(DbError::NotFound(table, b))?;
    Ok((decode_seq(&ra)?, decode_seq(&rb)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_dbengine::DbConfig;
    use rapilog_simcore::{DomainId, Sim};
    use rapilog_simdisk::{specs, BlockDevice, Disk};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    #[test]
    fn registers_roundtrip_and_stay_paired() {
        let mut sim = Sim::new(41);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
            let db = Database::create(
                &ctx,
                DbConfig::default(),
                &table_defs(4),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let table = registers_table(&db).unwrap();
            for client in 0..4 {
                init_client(&db, table, client).await.unwrap();
            }
            for seq in 1..=10 {
                write_pair(&db, table, 2, seq).await.unwrap();
            }
            assert_eq!(read_pair(&db, table, 2).await.unwrap(), (10, 10));
            assert_eq!(read_pair(&db, table, 0).await.unwrap(), (0, 0));
            db.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}
