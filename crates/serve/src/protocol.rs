//! The line-delimited JSON wire protocol.
//!
//! One JSON object per line in each direction, parsed with the in-tree
//! `logirec_obs::json` parser (no external deps, offline-friendly).
//!
//! Requests:
//!
//! ```text
//! {"id":1,"user":3,"k":10,"deadline_ms":250}   top-K recommendation
//! {"stats":true}                               server counters + latency percentiles
//! {"metrics":true}                             Prometheus-style text exposition
//! {"reload":true}                              force a reload check now
//! {"fold_in":{"positives":[3,9]}}              fold a new user into the snapshot
//! {"fold_in":{"item":true,"positives":[0,2]}}  fold a new item into the snapshot
//! {"shutdown":true}                            stop the server
//! ```
//!
//! `fold_in` optionally carries `steps` / `lr` overrides for the RSGD
//! fold-in loop (`steps` at most [`MAX_FOLD_IN_STEPS`]); it answers
//! `{"fold_in":"swapped",...}` with the new entity id and snapshot
//! version, or `{"fold_in":"rejected","reason":..}` when validation keeps
//! the last-good snapshot.
//!
//! Recommendation responses carry `served_by` — the degradation matrix's
//! outcome — plus the snapshot version that produced them:
//!
//! ```text
//! {"id":1,"served_by":"exact","model_version":1,"items":[..],"scores":[..],"latency_us":184}
//! {"id":1,"served_by":"approx","reason":"deadline",...,"approx":{"clusters":94,"nprobe":12,"scored":1408}}
//! {"id":1,"served_by":"fallback","reason":"deadline",...}
//! {"id":1,"served_by":"shed","reason":"overload","items":[],"scores":[],...}
//! {"id":1,"error":"user 99 out of range (64 users)"}
//! ```
//!
//! Scores are encoded with Rust's shortest round-trip `f64` formatting and
//! decoded with the standard correctly-rounded parser, so an exact-path
//! response is bit-identical to offline scoring on both ends of the wire.

use logirec_obs::json::{self, Json};

/// Which path produced a recommendation response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Full model scoring with seen-item masking — identical to `evaluate`.
    Exact,
    /// Clustered-index retrieval with exact re-rank of the shortlist
    /// (tight deadline, soft overload, or explicitly requested).
    Approx,
    /// The popularity-prior degraded response (deadline or soft overload).
    Fallback,
    /// Hard overload: the request was shed with an empty item list.
    Shed,
}

impl ServedBy {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ServedBy::Exact => "exact",
            ServedBy::Approx => "approx",
            ServedBy::Fallback => "fallback",
            ServedBy::Shed => "shed",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(ServedBy::Exact),
            "approx" => Some(ServedBy::Approx),
            "fallback" => Some(ServedBy::Fallback),
            "shed" => Some(ServedBy::Shed),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServedBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A top-K recommendation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: u64,
    /// User to recommend for.
    pub user: usize,
    /// How many items to return.
    pub k: usize,
    /// Per-request deadline in milliseconds; `None` uses the server
    /// default. A deadline of 0 deterministically degrades to fallback.
    pub deadline_ms: Option<u64>,
}

/// A streaming cold-start fold-in admin verb: grow the live snapshot by
/// one user (or item) off the request path and publish a new version.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldInVerb {
    /// `false` folds in a new user, `true` a new item.
    pub item: bool,
    /// Observed interactions for the new entity (item ids for a user,
    /// user ids for an item).
    pub positives: Vec<usize>,
    /// Optional override of the fold-in RSGD step count.
    pub steps: Option<usize>,
    /// Optional override of the fold-in RSGD learning rate.
    pub lr: Option<f64>,
}

/// Everything a client can send on one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A recommendation request.
    Recommend(Request),
    /// Ask for the server's counters.
    Stats,
    /// Ask for the Prometheus-style metrics exposition document.
    Metrics,
    /// Force a reload check of the watched model file.
    Reload,
    /// Fold a new user or item into the live snapshot.
    FoldIn(FoldInVerb),
    /// Stop the server.
    Shutdown,
}

/// The measured retrieval configuration an `approx` response was produced
/// under, so clients (and load tests) can attribute recall to knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxInfo {
    /// Clusters in the serving index.
    pub clusters: usize,
    /// Clusters probed for this request (the configured `nprobe`).
    pub nprobe: usize,
    /// Items exactly re-ranked for this request.
    pub scored: usize,
}

/// One recommendation response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Which path produced the items.
    pub served_by: ServedBy,
    /// Why the response degraded (`"deadline"` / `"overload"`), when it did.
    pub reason: Option<String>,
    /// Version of the snapshot that was live when the request ran.
    pub model_version: u64,
    /// Recommended item ids, best first (empty for `shed`).
    pub items: Vec<usize>,
    /// Scores aligned with `items` (exact: model scores; fallback:
    /// popularity counts).
    pub scores: Vec<f64>,
    /// Server-side latency of the request in microseconds.
    pub latency_us: u64,
    /// Retrieval configuration, present on `approx` responses only.
    pub approx: Option<ApproxInfo>,
}

/// The largest `steps` a wire fold-in may ask for. A fold-in holds the
/// server's fold-in lock for all its steps, so an unbounded count would
/// stall every other fold-in; the default is 30.
pub const MAX_FOLD_IN_STEPS: usize = 1_000;

/// Parses one request line.
pub fn parse_message(line: &str) -> Result<Message, String> {
    let j = json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    if j.get("shutdown").and_then(Json::as_bool) == Some(true) {
        return Ok(Message::Shutdown);
    }
    if j.get("reload").and_then(Json::as_bool) == Some(true) {
        return Ok(Message::Reload);
    }
    if j.get("stats").and_then(Json::as_bool) == Some(true) {
        return Ok(Message::Stats);
    }
    if j.get("metrics").and_then(Json::as_bool) == Some(true) {
        return Ok(Message::Metrics);
    }
    if let Some(f) = j.get("fold_in") {
        let positives = match f.get("positives") {
            Some(Json::Arr(a)) => a
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .ok_or("fold_in positives must be non-negative integers")
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("fold_in needs a \"positives\" array".to_string()),
        };
        let steps = f.get("steps").and_then(Json::as_u64);
        if let Some(n) = steps.filter(|&n| n > MAX_FOLD_IN_STEPS as u64) {
            return Err(format!("fold_in steps {n} is above the cap of {MAX_FOLD_IN_STEPS}"));
        }
        return Ok(Message::FoldIn(FoldInVerb {
            item: f.get("item").and_then(Json::as_bool).unwrap_or(false),
            positives,
            steps: steps.map(|n| n as usize),
            lr: f.get("lr").and_then(Json::as_f64),
        }));
    }
    let user = j
        .get("user")
        .and_then(Json::as_u64)
        .ok_or("request needs a non-negative integer \"user\"")? as usize;
    Ok(Message::Recommend(Request {
        id: j.get("id").and_then(Json::as_u64).unwrap_or(0),
        user,
        k: j.get("k").and_then(Json::as_u64).unwrap_or(10) as usize,
        deadline_ms: j.get("deadline_ms").and_then(Json::as_u64),
    }))
}

/// Encodes a recommendation request line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut s = format!("{{\"id\":{},\"user\":{},\"k\":{}", req.id, req.user, req.k);
    if let Some(d) = req.deadline_ms {
        s.push_str(&format!(",\"deadline_ms\":{d}"));
    }
    s.push('}');
    s
}

/// Encodes a fold-in admin request line (no trailing newline).
pub fn encode_fold_in(verb: &FoldInVerb) -> String {
    let mut s = "{\"fold_in\":{".to_string();
    if verb.item {
        s.push_str("\"item\":true,");
    }
    s.push_str("\"positives\":[");
    for (i, v) in verb.positives.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
    if let Some(n) = verb.steps {
        s.push_str(&format!(",\"steps\":{n}"));
    }
    if let Some(lr) = verb.lr {
        s.push_str(&format!(",\"lr\":{lr}"));
    }
    s.push_str("}}");
    s
}

/// Encodes a recommendation response line (no trailing newline).
pub fn encode_response(r: &Response) -> String {
    let mut s = format!("{{\"id\":{},\"served_by\":\"{}\"", r.id, r.served_by.as_str());
    if let Some(reason) = &r.reason {
        s.push_str(",\"reason\":\"");
        json::escape_into(reason, &mut s);
        s.push('"');
    }
    s.push_str(&format!(",\"model_version\":{}", r.model_version));
    s.push_str(",\"items\":[");
    for (i, v) in r.items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push_str("],\"scores\":[");
    for (i, x) in r.scores.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // Shortest round-trip formatting: parses back to the same bits.
        s.push_str(&format!("{x}"));
    }
    s.push_str(&format!("],\"latency_us\":{}", r.latency_us));
    if let Some(a) = &r.approx {
        s.push_str(&format!(
            ",\"approx\":{{\"clusters\":{},\"nprobe\":{},\"scored\":{}}}",
            a.clusters, a.nprobe, a.scored
        ));
    }
    s.push('}');
    s
}

/// Encodes an error response line (a client error; the connection stays up).
pub fn encode_error(id: u64, msg: &str) -> String {
    let mut s = format!("{{\"id\":{id},\"error\":\"");
    json::escape_into(msg, &mut s);
    s.push_str("\"}");
    s
}

/// Parses a response line. `Ok(Err(msg))` is a server-reported request
/// error; `Err` is a malformed line.
pub fn parse_response(line: &str) -> Result<Result<Response, String>, String> {
    let j = json::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
    let id = j.get("id").and_then(Json::as_u64).unwrap_or(0);
    if let Some(err) = j.get("error").and_then(Json::as_str) {
        return Ok(Err(err.to_string()));
    }
    let served_by = j
        .get("served_by")
        .and_then(Json::as_str)
        .and_then(ServedBy::parse)
        .ok_or("response lacks a valid \"served_by\"")?;
    let items = match j.get("items") {
        Some(Json::Arr(a)) => a
            .iter()
            .map(|v| v.as_u64().map(|n| n as usize).ok_or("non-integer item id"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("response lacks an \"items\" array".to_string()),
    };
    let scores = match j.get("scores") {
        Some(Json::Arr(a)) => a
            .iter()
            .map(|v| v.as_f64().ok_or("non-numeric score"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("response lacks a \"scores\" array".to_string()),
    };
    let approx = j.get("approx").map(|a| ApproxInfo {
        clusters: a.get("clusters").and_then(Json::as_u64).unwrap_or(0) as usize,
        nprobe: a.get("nprobe").and_then(Json::as_u64).unwrap_or(0) as usize,
        scored: a.get("scored").and_then(Json::as_u64).unwrap_or(0) as usize,
    });
    Ok(Ok(Response {
        id,
        served_by,
        reason: j.get("reason").and_then(Json::as_str).map(str::to_string),
        model_version: j.get("model_version").and_then(Json::as_u64).unwrap_or(0),
        items,
        scores,
        latency_us: j.get("latency_us").and_then(Json::as_u64).unwrap_or(0),
        approx,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = Request { id: 7, user: 3, k: 5, deadline_ms: Some(250) };
        let line = encode_request(&req);
        assert_eq!(parse_message(&line), Ok(Message::Recommend(req)));
        // deadline_ms is optional on the wire.
        let msg = parse_message("{\"user\":1}").expect("parses");
        assert_eq!(
            msg,
            Message::Recommend(Request { id: 0, user: 1, k: 10, deadline_ms: None })
        );
    }

    #[test]
    fn admin_messages_parse() {
        assert_eq!(parse_message("{\"shutdown\":true}"), Ok(Message::Shutdown));
        assert_eq!(parse_message("{\"reload\":true}"), Ok(Message::Reload));
        assert_eq!(parse_message("{\"stats\":true}"), Ok(Message::Stats));
        assert_eq!(parse_message("{\"metrics\":true}"), Ok(Message::Metrics));
        assert!(parse_message("{\"k\":10}").is_err(), "no user and no admin key");
        assert!(parse_message("not json").is_err());
    }

    #[test]
    fn fold_in_verbs_round_trip() {
        let user = FoldInVerb { item: false, positives: vec![3, 9], steps: None, lr: None };
        assert_eq!(parse_message(&encode_fold_in(&user)), Ok(Message::FoldIn(user)));
        let item = FoldInVerb {
            item: true,
            positives: vec![0, 2, 5],
            steps: Some(12),
            lr: Some(0.25),
        };
        assert_eq!(parse_message(&encode_fold_in(&item)), Ok(Message::FoldIn(item)));
        assert!(
            parse_message("{\"fold_in\":{}}").is_err(),
            "fold_in without positives is a client error"
        );
        assert!(parse_message("{\"fold_in\":{\"positives\":[-1]}}").is_err());
    }

    #[test]
    fn fold_in_steps_are_capped() {
        let verb = |steps| FoldInVerb { item: false, positives: vec![3], steps, lr: None };
        let at_cap = verb(Some(MAX_FOLD_IN_STEPS));
        assert_eq!(parse_message(&encode_fold_in(&at_cap)), Ok(Message::FoldIn(at_cap)));
        for steps in [MAX_FOLD_IN_STEPS + 1, 1_000_000_000] {
            let err = parse_message(&encode_fold_in(&verb(Some(steps)))).unwrap_err();
            assert!(err.contains(&MAX_FOLD_IN_STEPS.to_string()), "{err}");
        }
    }

    #[test]
    // The awkward 17-digit literal is the point: shortest round-trip
    // formatting must reproduce exactly these bits.
    #[allow(clippy::excessive_precision)]
    fn response_round_trips_scores_bit_exactly() {
        let resp = Response {
            id: 9,
            served_by: ServedBy::Exact,
            reason: None,
            model_version: 3,
            items: vec![4, 1, 0],
            scores: vec![-1.0686951927368068, -2.5e-300, 0.1 + 0.2],
            latency_us: 1234,
            approx: None,
        };
        let parsed = parse_response(&encode_response(&resp))
            .expect("parses")
            .expect("not an error");
        assert_eq!(parsed.items, resp.items);
        for (a, b) in parsed.scores.iter().zip(&resp.scores) {
            assert_eq!(a.to_bits(), b.to_bits(), "score {b} did not round-trip");
        }
        assert_eq!(parsed.served_by, ServedBy::Exact);
        assert_eq!(parsed.model_version, 3);
    }

    #[test]
    fn degraded_responses_carry_their_reason() {
        let resp = Response {
            id: 1,
            served_by: ServedBy::Fallback,
            reason: Some("deadline".to_string()),
            model_version: 1,
            items: vec![2],
            scores: vec![17.0],
            latency_us: 9,
            approx: None,
        };
        let parsed = parse_response(&encode_response(&resp)).unwrap().unwrap();
        assert_eq!(parsed.reason.as_deref(), Some("deadline"));
        assert_eq!(parsed.served_by, ServedBy::Fallback);
    }

    #[test]
    fn approx_responses_round_trip_their_probe_config() {
        let resp = Response {
            id: 3,
            served_by: ServedBy::Approx,
            reason: Some("deadline".to_string()),
            model_version: 2,
            items: vec![5, 9],
            scores: vec![-0.25, -0.75],
            latency_us: 41,
            approx: Some(ApproxInfo { clusters: 94, nprobe: 12, scored: 1408 }),
        };
        let parsed = parse_response(&encode_response(&resp)).unwrap().unwrap();
        assert_eq!(parsed.served_by, ServedBy::Approx);
        assert_eq!(parsed.approx, resp.approx);
        // Non-approx responses omit the key entirely.
        let exact = Response { served_by: ServedBy::Exact, reason: None, approx: None, ..resp };
        let line = encode_response(&exact);
        assert!(!line.contains("approx"), "{line}");
    }

    #[test]
    fn error_responses_surface_as_inner_err_with_escaping() {
        let line = encode_error(5, "bad \"user\"\nvalue");
        let err = parse_response(&line).expect("parses").unwrap_err();
        assert_eq!(err, "bad \"user\"\nvalue");
    }
}
