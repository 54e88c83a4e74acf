//! One cooperative edge node as an OS process; see
//! `nakika::node_main` for the argument list and the
//! stdio handshake, and `docs/CLUSTER.md` for the operator's guide.

fn main() {
    if let Err(message) = nakika::node_main(std::env::args().skip(1)) {
        eprintln!("edge-node: {message}");
        std::process::exit(2);
    }
}
