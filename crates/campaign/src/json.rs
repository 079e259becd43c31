//! JSON reading for cache files, campaign specs, and reports: the
//! serde shim's reader, re-exported so `cr_campaign::json::Json` names
//! the one codec that also writes every document. Typed decoding goes
//! through [`serde::Deserialize`].

pub use serde::Json;

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn reexport_still_parses_campaign_shapes() {
        let v = Json::parse(r#"{"tasks":[{"PocScan":"ie"}],"seed":2017}"#).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(2017));
        assert_eq!(
            v.get("tasks").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }
}
