//! End-to-end smoke: boot `seedbd` on an ephemeral port and drive every
//! endpoint through real TCP connections.

use seedb_server::{client, Server, ServerConfig};

fn boot() -> seedb_server::ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_rows: 3_000,
        default_rows: 800,
        ..Default::default()
    };
    Server::bind(config).unwrap().spawn().unwrap()
}

#[test]
fn full_api_surface_over_tcp() {
    let handle = boot();
    let addr = handle.addr();

    // /healthz
    let (status, j) = client::request_json(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(j.get("status").unwrap().as_str(), Some("ok"));

    // /datasets lists all ten Table 1 entries.
    let (status, j) = client::request_json(addr, "GET", "/datasets", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(j.get("datasets").unwrap().as_arr().unwrap().len(), 10);

    // /recommend cold, then warm.
    let body = r#"{"dataset": "CENSUS", "rows": 800, "k": 4}"#;
    let (status, cold) = client::request_json(addr, "POST", "/recommend", Some(body)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(cold.get("cache").unwrap().as_str(), Some("miss"));
    let views = cold.get("views").unwrap().as_arr().unwrap();
    assert_eq!(views.len(), 4);
    for view in views {
        assert!(view.get("utility").unwrap().as_num().is_some());
        assert!(!view.get("groups").unwrap().as_arr().unwrap().is_empty());
    }

    let (status, warm) = client::request_json(addr, "POST", "/recommend", Some(body)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(warm.get("cache").unwrap().as_str(), Some("hit"));
    assert_eq!(cold.get("views"), warm.get("views"));
    assert_eq!(cold.get("all_utilities"), warm.get("all_utilities"));

    // /statz reflects the traffic.
    let (status, stats) = client::request_json(addr, "GET", "/statz", None).unwrap();
    assert_eq!(status, 200);
    let rec = stats.get("recommend").unwrap();
    assert_eq!(rec.get("response_hits").unwrap().as_u64(), Some(1));
    assert_eq!(rec.get("response_misses").unwrap().as_u64(), Some(1));
    assert!(
        stats
            .get("cache")
            .unwrap()
            .get("entries")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );

    // Errors: bad JSON, unknown dataset, bad SQL, unknown route.
    let (status, err) = client::request_json(addr, "POST", "/recommend", Some("{ nope")).unwrap();
    assert_eq!(status, 400);
    assert!(err.get("error").is_some());
    let (status, _) = client::request_json(
        addr,
        "POST",
        "/recommend",
        Some(r#"{"dataset": "MYSTERY"}"#),
    )
    .unwrap();
    assert_eq!(status, 400);
    let (status, err) = client::request_json(
        addr,
        "POST",
        "/recommend",
        Some(r#"{"dataset": "CENSUS", "where": "age >="}"#),
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(err
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("error"));
    let (status, _) = client::request_json(addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);

    handle.shutdown();
}

#[test]
fn recommend_honours_config_overrides() {
    let handle = boot();
    let addr = handle.addr();

    // COMB + CI pruning is accepted; a cold cache holds no view for it yet.
    let body = r#"{"dataset": "HOUSING", "rows": 400, "k": 2,
                   "strategy": "COMB", "pruning": "CI", "num_phases": 4}"#;
    let (status, j) = client::request_json(addr, "POST", "/recommend", Some(body)).unwrap();
    assert_eq!(status, 200, "{j:?}");
    assert_eq!(j.get("views").unwrap().as_arr().unwrap().len(), 2);
    assert_eq!(j.get("view_hits").unwrap().as_u64(), Some(0));

    handle.shutdown();
}

#[test]
fn complement_and_query_references_work() {
    let handle = boot();
    let addr = handle.addr();
    for reference in ["whole", "complement", "age >= 30"] {
        let body = format!(
            r#"{{"dataset": "CENSUS", "rows": 600, "k": 2,
                "where": "sex = 'female'", "reference": "{reference}"}}"#
        );
        let (status, j) = client::request_json(addr, "POST", "/recommend", Some(&body)).unwrap();
        assert_eq!(status, 200, "reference {reference}: {j:?}");
        assert_eq!(j.get("views").unwrap().as_arr().unwrap().len(), 2);
    }
    handle.shutdown();
}
