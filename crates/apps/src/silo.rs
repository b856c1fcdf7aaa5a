//! `silo`: an in-memory OLTP database running a TPC-C-like workload.
//!
//! Ordered benchmark: every transaction gets a timestamp (its serial order)
//! and is decomposed into tasks that each read or update one tuple of one
//! table. A tuple's address is not known when the task is created (the real
//! system must traverse an index first), but its *identity* — `(table,
//! primary key)` — is, so that pair is the spatial hint (the "abstract unique
//! id" pattern of Table I).
//!
//! The workload is a scaled-down TPC-C: `new-order` transactions (70%)
//! update a district's next-order-id and the stock of a handful of items and
//! write order-line records; `payment` transactions (30%) update warehouse,
//! district and customer balances.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

/// Table identifiers used in hints.
const T_WAREHOUSE: u32 = 0;
const T_DISTRICT: u32 = 1;
const T_CUSTOMER: u32 = 2;
const T_STOCK: u32 = 3;
const T_ORDERS: u32 = 4;

const FID_NEW_ORDER_ROOT: TaskFnId = 0;
const FID_STOCK_UPDATE: TaskFnId = 1;
const FID_ORDER_INSERT: TaskFnId = 2;
const FID_PAYMENT_ROOT: TaskFnId = 3;
const FID_WAREHOUSE_PAY: TaskFnId = 4;
const FID_CUSTOMER_PAY: TaskFnId = 5;

/// One generated transaction.
#[derive(Debug, Clone)]
enum Txn {
    NewOrder {
        warehouse: u64,
        district: u64,
        /// (item, quantity) pairs; items are distinct within a transaction.
        items: Vec<(u64, u64)>,
    },
    Payment {
        warehouse: u64,
        district: u64,
        customer: u64,
        amount: u64,
    },
}

/// Workload parameters for the silo benchmark.
#[derive(Debug, Clone)]
pub struct SiloWorkload {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse.
    pub districts_per_warehouse: u64,
    /// Customers per district.
    pub customers_per_district: u64,
    /// Number of distinct items.
    pub items: u64,
    /// Number of transactions.
    pub transactions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SiloWorkload {
    fn default() -> Self {
        SiloWorkload {
            warehouses: 4,
            districts_per_warehouse: 4,
            customers_per_district: 16,
            items: 128,
            transactions: 400,
            seed: 1,
        }
    }
}

/// The silo benchmark.
pub struct Silo {
    workload: SiloWorkload,
    txns: Vec<Txn>,
    warehouse_ytd: Region,
    district: Region, // stride 2: [ytd, next_oid]
    customer_balance: Region,
    stock: Region, // stride 2: [quantity, ytd]
    orders: Region,
    reference: SiloReference,
}

/// Final state computed by the serial reference execution.
#[derive(Debug, Clone, Default)]
struct SiloReference {
    warehouse_ytd: Vec<u64>,
    district_ytd: Vec<u64>,
    district_next_oid: Vec<u64>,
    customer_balance: Vec<u64>,
    stock_quantity: Vec<u64>,
}

impl Silo {
    /// Build the benchmark, generating `workload.transactions` transactions.
    pub fn new(workload: SiloWorkload) -> Self {
        let mut rng = SmallRng::seed_from_u64(workload.seed);
        let mut txns = Vec::with_capacity(workload.transactions);
        for _ in 0..workload.transactions {
            let warehouse = rng.gen_range(0..workload.warehouses);
            let district = rng.gen_range(0..workload.districts_per_warehouse);
            if rng.gen_bool(0.7) {
                let num_items = rng.gen_range(3..=8usize);
                let mut items = Vec::with_capacity(num_items);
                while items.len() < num_items {
                    let item = rng.gen_range(0..workload.items);
                    if !items.iter().any(|&(i, _)| i == item) {
                        items.push((item, rng.gen_range(1..=5u64)));
                    }
                }
                txns.push(Txn::NewOrder { warehouse, district, items });
            } else {
                txns.push(Txn::Payment {
                    warehouse,
                    district,
                    customer: rng.gen_range(0..workload.customers_per_district),
                    amount: rng.gen_range(1..100u64),
                });
            }
        }

        let num_districts = workload.warehouses * workload.districts_per_warehouse;
        let num_customers = num_districts * workload.customers_per_district;
        let num_stock = workload.warehouses * workload.items;
        let mut space = AddressSpace::new();
        let warehouse_ytd = space.alloc_strided("warehouse", workload.warehouses, 8);
        let district = space.alloc_strided("district", num_districts, 8);
        let customer_balance = space.alloc_array("customer", num_customers);
        let stock = space.alloc_strided("stock", num_stock, 2);
        // Generous order-line area: transactions × max items.
        let orders = space.alloc_array("orders", (workload.transactions * 8) as u64);

        let reference = Self::run_serial(&workload, &txns);
        Silo { workload, txns, warehouse_ytd, district, customer_balance, stock, orders, reference }
    }

    fn district_index(&self, warehouse: u64, district: u64) -> u64 {
        warehouse * self.workload.districts_per_warehouse + district
    }

    fn customer_index(&self, warehouse: u64, district: u64, customer: u64) -> u64 {
        self.district_index(warehouse, district) * self.workload.customers_per_district + customer
    }

    fn stock_index(&self, warehouse: u64, item: u64) -> u64 {
        warehouse * self.workload.items + item
    }

    fn initial_stock(index: u64) -> u64 {
        50 + (index % 41)
    }

    fn run_serial(workload: &SiloWorkload, txns: &[Txn]) -> SiloReference {
        let num_districts = workload.warehouses * workload.districts_per_warehouse;
        let num_customers = num_districts * workload.customers_per_district;
        let num_stock = workload.warehouses * workload.items;
        let mut r = SiloReference {
            warehouse_ytd: vec![0; workload.warehouses as usize],
            district_ytd: vec![0; num_districts as usize],
            district_next_oid: vec![0; num_districts as usize],
            customer_balance: vec![1_000_000; num_customers as usize],
            stock_quantity: (0..num_stock).map(Self::initial_stock).collect(),
        };
        for txn in txns {
            match txn {
                Txn::NewOrder { warehouse, district, items } => {
                    let d = (warehouse * workload.districts_per_warehouse + district) as usize;
                    r.district_next_oid[d] += 1;
                    for &(item, qty) in items {
                        let s = (warehouse * workload.items + item) as usize;
                        if r.stock_quantity[s] >= qty {
                            r.stock_quantity[s] -= qty;
                        } else {
                            r.stock_quantity[s] = r.stock_quantity[s] + 91 - qty;
                        }
                    }
                }
                Txn::Payment { warehouse, district, customer, amount } => {
                    let d = (warehouse * workload.districts_per_warehouse + district) as usize;
                    let c = (d as u64 * workload.customers_per_district + customer) as usize;
                    r.warehouse_ytd[*warehouse as usize] += amount;
                    r.district_ytd[d] += amount;
                    r.customer_balance[c] -= amount;
                }
            }
        }
        r
    }
}

impl SwarmApp for Silo {
    fn name(&self) -> &str {
        "silo"
    }

    fn init_memory(&self, mem: &mut SimMemory) {
        let num_customers = self.workload.warehouses
            * self.workload.districts_per_warehouse
            * self.workload.customers_per_district;
        for c in 0..num_customers {
            mem.store(self.customer_balance.addr_of(c), 1_000_000);
        }
        let num_stock = self.workload.warehouses * self.workload.items;
        for s in 0..num_stock {
            mem.store(self.stock.addr_of_field(s, 0), Self::initial_stock(s));
        }
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        self.txns
            .iter()
            .enumerate()
            .map(|(i, txn)| {
                let ts = i as Timestamp;
                match txn {
                    Txn::NewOrder { warehouse, district, .. } => InitialTask::new(
                        FID_NEW_ORDER_ROOT,
                        ts,
                        Hint::object(T_DISTRICT, self.district_index(*warehouse, *district)),
                        vec![i as u64],
                    ),
                    Txn::Payment { warehouse, district, .. } => InitialTask::new(
                        FID_PAYMENT_ROOT,
                        ts,
                        Hint::object(T_DISTRICT, self.district_index(*warehouse, *district)),
                        vec![i as u64],
                    ),
                }
            })
            .collect()
    }

    fn run_task(&self, fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        match fid {
            FID_NEW_ORDER_ROOT => {
                let txn = &self.txns[args[0] as usize];
                let Txn::NewOrder { warehouse, district, items } = txn else {
                    panic!("task function does not match transaction type");
                };
                let d = self.district_index(*warehouse, *district);
                // Allocate the order id from the district tuple.
                let next_oid_addr = self.district.addr_of_field(d, 1);
                let oid = ctx.read(next_oid_addr);
                ctx.write(next_oid_addr, oid + 1);
                ctx.compute(30); // index traversal to find the district tuple
                for (slot, &(item, qty)) in items.iter().enumerate() {
                    let stock_key = self.stock_index(*warehouse, item);
                    ctx.enqueue(
                        FID_STOCK_UPDATE,
                        ts,
                        Hint::object(T_STOCK, stock_key),
                        &[stock_key, qty],
                    );
                    ctx.enqueue(
                        FID_ORDER_INSERT,
                        ts,
                        Hint::object(T_ORDERS, args[0] * 8 + slot as u64),
                        &[args[0] * 8 + slot as u64, item, qty],
                    );
                }
            }
            FID_STOCK_UPDATE => {
                let stock_key = args[0];
                let qty = args[1];
                let addr = self.stock.addr_of_field(stock_key, 0);
                let current = ctx.read(addr);
                let updated = if current >= qty { current - qty } else { current + 91 - qty };
                ctx.write(addr, updated);
                let ytd_addr = self.stock.addr_of_field(stock_key, 1);
                let ytd = ctx.read(ytd_addr);
                ctx.write(ytd_addr, ytd + qty);
                ctx.compute(40); // B-tree traversal to locate the stock tuple
            }
            FID_ORDER_INSERT => {
                let slot = args[0];
                let item = args[1];
                let qty = args[2];
                ctx.write(self.orders.addr_of(slot), (item << 8) | qty);
                ctx.compute(25);
            }
            FID_PAYMENT_ROOT => {
                let txn = &self.txns[args[0] as usize];
                let Txn::Payment { warehouse, district, customer, amount } = txn else {
                    panic!("task function does not match transaction type");
                };
                let d = self.district_index(*warehouse, *district);
                let ytd_addr = self.district.addr_of_field(d, 0);
                let ytd = ctx.read(ytd_addr);
                ctx.write(ytd_addr, ytd + amount);
                ctx.compute(30);
                ctx.enqueue(
                    FID_WAREHOUSE_PAY,
                    ts,
                    Hint::object(T_WAREHOUSE, *warehouse),
                    &[*warehouse, *amount],
                );
                let c = self.customer_index(*warehouse, *district, *customer);
                ctx.enqueue(FID_CUSTOMER_PAY, ts, Hint::object(T_CUSTOMER, c), &[c, *amount]);
            }
            FID_WAREHOUSE_PAY => {
                let warehouse = args[0];
                let amount = args[1];
                let addr = self.warehouse_ytd.addr_of_field(warehouse, 0);
                let ytd = ctx.read(addr);
                ctx.write(addr, ytd + amount);
                ctx.compute(20);
            }
            FID_CUSTOMER_PAY => {
                let c = args[0];
                let amount = args[1];
                let addr = self.customer_balance.addr_of(c);
                let balance = ctx.read(addr);
                ctx.write(addr, balance - amount);
                ctx.compute(20);
            }
            other => panic!("unknown silo task function {other}"),
        }
    }

    fn num_task_fns(&self) -> usize {
        6
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for w in 0..self.workload.warehouses {
            if mem.load(self.warehouse_ytd.addr_of_field(w, 0))
                != self.reference.warehouse_ytd[w as usize]
            {
                return Err(format!("warehouse {w} ytd mismatch"));
            }
        }
        let num_districts = self.workload.warehouses * self.workload.districts_per_warehouse;
        for d in 0..num_districts {
            if mem.load(self.district.addr_of_field(d, 0))
                != self.reference.district_ytd[d as usize]
            {
                return Err(format!("district {d} ytd mismatch"));
            }
            if mem.load(self.district.addr_of_field(d, 1))
                != self.reference.district_next_oid[d as usize]
            {
                return Err(format!("district {d} next-oid mismatch"));
            }
        }
        let num_customers = num_districts * self.workload.customers_per_district;
        for c in 0..num_customers {
            if mem.load(self.customer_balance.addr_of(c))
                != self.reference.customer_balance[c as usize]
            {
                return Err(format!("customer {c} balance mismatch"));
            }
        }
        let num_stock = self.workload.warehouses * self.workload.items;
        for s in 0..num_stock {
            if mem.load(self.stock.addr_of_field(s, 0)) != self.reference.stock_quantity[s as usize]
            {
                return Err(format!("stock {s} quantity mismatch"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_hints::Scheduler;
    use swarm_sim::Sim;

    fn small_workload(seed: u64) -> SiloWorkload {
        SiloWorkload { transactions: 120, seed, ..SiloWorkload::default() }
    }

    fn run(app: Silo, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("silo must match the serial transaction execution")
    }

    #[test]
    fn serial_reference_is_consistent() {
        let silo = Silo::new(small_workload(7));
        // Payments conserve money: total customer balance decrease equals
        // warehouse + district ytd increase... district and warehouse both
        // get the full amount, so ytd sums are equal.
        let w_total: u64 = silo.reference.warehouse_ytd.iter().sum();
        let d_total: u64 = silo.reference.district_ytd.iter().sum();
        assert_eq!(w_total, d_total);
    }

    #[test]
    fn matches_serial_on_one_core() {
        run(Silo::new(small_workload(8)), Scheduler::Random, 1);
    }

    #[test]
    fn matches_serial_under_all_schedulers() {
        for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            run(Silo::new(small_workload(9)), s, 16);
        }
    }

    #[test]
    fn transactions_spawn_per_tuple_tasks() {
        let stats = run(Silo::new(small_workload(10)), Scheduler::Hints, 16);
        // Every new-order spawns 2 tasks per item plus the root; payments
        // spawn 2 children; so committed tasks far exceed transactions.
        assert!(stats.tasks_committed > 300);
    }
}
