//! Out-of-core ingest equivalence: for every generator family, the
//! biconnected-components labeling computed from an mmap-backed
//! `.bccsr` graph must be bit-for-bit identical to the one computed
//! from the in-memory build — across every algorithm, since the
//! storage backend sits below the whole pipeline. One family is
//! disconnected, with isolated vertices.

use smp_bcc::graph::gen;
use smp_bcc::{Algorithm, BccConfig, Graph, MappedCsr, Pool};

fn family_instances() -> Vec<(&'static str, Graph)> {
    vec![
        ("random-sparse", gen::random_connected(300, 1200, 42)),
        ("geo", gen::geometric(300, 12.0, 300, 42)),
        ("torus", gen::torus(17, 17)),
        ("cycle-chain", gen::cycle_chain(36, 8, 42)),
        ("random-tree", gen::random_tree(200, 42)),
        ("two-cliques", gen::two_cliques_sharing_vertex(9)),
        // Disconnected, with isolated vertices: `run_any` labels it in
        // one pass over the mapped CSR.
        ("sparse-gnm", gen::random_gnm(400, 300, 42)),
    ]
}

#[test]
fn mapped_and_in_memory_builds_label_identically_on_every_family() {
    let dir = std::env::temp_dir().join(format!("bcc-ingest-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pool = Pool::new(4);
    for (name, g) in family_instances() {
        let path = dir.join(format!("{name}.bccsr"));
        g.save_bccsr(&path).unwrap();
        let mapped = MappedCsr::open_graph(&path).unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(mapped.edges(), g.edges(), "{name}: edge list differs");
        for alg in Algorithm::ALL {
            let mem = BccConfig::new(alg).run_any(&pool, &g).unwrap().result;
            let disk = BccConfig::new(alg).run_any(&pool, &mapped).unwrap().result;
            assert_eq!(
                mem.num_components,
                disk.num_components,
                "{name}/{}: component counts differ",
                alg.name()
            );
            assert_eq!(
                mem.edge_comp,
                disk.edge_comp,
                "{name}/{}: labelings differ",
                alg.name()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
