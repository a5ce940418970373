//! Checks shared by the recovery and chaos suites.

use banks_core::Banks;

/// Assert two systems are bit-for-bit interchangeable: database slots,
/// graph, text index, and ranked results.
pub fn assert_identical(live: &Banks, recovered: &Banks, queries: &[&str]) {
    // Tuples, slot-exact.
    assert_eq!(live.db().total_tuples(), recovered.db().total_tuples());
    assert_eq!(live.db().link_count(), recovered.db().link_count());
    for (a, b) in live.db().relations().zip(recovered.db().relations()) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.slot_count(), b.slot_count(), "{}", a.schema().name);
        let av: Vec<_> = a.scan().collect();
        let bv: Vec<_> = b.scan().collect();
        assert_eq!(av, bv, "slot drift in {}", a.schema().name);
    }
    // Graph: nodes, weights, edges — bit-exact (f64::to_bits).
    let (g, h) = (live.tuple_graph().graph(), recovered.tuple_graph().graph());
    assert_eq!(g.node_count(), h.node_count());
    assert_eq!(g.edge_count(), h.edge_count());
    for v in g.nodes() {
        assert_eq!(
            g.node_weight(v).to_bits(),
            h.node_weight(v).to_bits(),
            "node weight {v:?}"
        );
        let ge: Vec<_> = g.out_edges(v).map(|(t, w)| (t, w.to_bits())).collect();
        let he: Vec<_> = h.out_edges(v).map(|(t, w)| (t, w.to_bits())).collect();
        assert_eq!(ge, he, "out edges of {v:?}");
    }
    // Text index: every token's postings.
    assert_eq!(
        live.text_index().distinct_tokens(),
        recovered.text_index().distinct_tokens()
    );
    assert_eq!(
        live.text_index().posting_count(),
        recovered.text_index().posting_count()
    );
    for token in live.text_index().tokens() {
        assert_eq!(
            live.text_index().lookup(token),
            recovered.text_index().lookup(token),
            "postings for {token}"
        );
    }
    // Ranked results.
    for q in queries {
        let a = live.search(q).unwrap();
        let b = recovered.search(q).unwrap();
        assert_eq!(a.len(), b.len(), "{q}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tree.signature(), y.tree.signature(), "{q}");
            assert_eq!(x.relevance.to_bits(), y.relevance.to_bits(), "{q}");
        }
    }
}
