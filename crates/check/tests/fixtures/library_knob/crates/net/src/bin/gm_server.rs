// Allowed: a binary reads its knobs and passes the values in.
fn main() {
    let addr = std::env::var("GM_SERVER_ADDR").unwrap_or_default();
    println!("{addr}");
}
