//! Output correctness checks run at the end of every workload.

use std::collections::BTreeMap;

use dynastar_core::LocationView;

/// Checks the replicas' key→partition views after the cluster has
/// drained: within each group every live replica reports the same view;
/// each partition reports only keys it owns and no key is owned twice;
/// and the union of the partition views equals the union of the oracle
/// shard views. `views` is ordered as [`dynastar_core::Cluster::groups`]:
/// partitions `0..partitions`, then the oracle shard groups.
pub fn check_views(views: &[Vec<Option<LocationView>>], partitions: usize) -> Result<(), String> {
    if views.len() <= partitions {
        return Err(format!("{} groups reported, expected partitions + oracle", views.len()));
    }
    let mut owned: BTreeMap<u64, u32> = BTreeMap::new();
    let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
    for (gi, group) in views.iter().enumerate() {
        let live: Vec<&LocationView> = group.iter().flatten().collect();
        let Some(first) = live.first() else {
            return Err(format!("group {gi}: no live replica reported a view"));
        };
        if let Some(r) = live.iter().position(|v| v != first) {
            let (a, b): (BTreeMap<u64, u32>, BTreeMap<u64, u32>) =
                (first.iter().copied().collect(), live[r].iter().copied().collect());
            let key = a.keys().chain(b.keys()).find(|k| a.get(k) != b.get(k));
            let diff = key.map(|k| format!("key {k}: {:?} vs {:?}", a.get(k), b.get(k)));
            return Err(format!(
                "group {gi}: live replica {r} reports {} keys, live replica 0 {}; first \
                 difference at {}",
                b.len(),
                a.len(),
                diff.unwrap_or_default()
            ));
        }
        for &(key, p) in first.iter() {
            if gi < partitions {
                if p != gi as u32 {
                    return Err(format!("partition {gi} reports key {key} as on partition {p}"));
                }
                if owned.insert(key, p).is_some() {
                    return Err(format!("key {key} is owned by two partitions"));
                }
            } else if oracle.insert(key, p).is_some_and(|q| q != p) {
                return Err(format!("oracle shards disagree on key {key}"));
            }
        }
    }
    if owned != oracle {
        let diff = owned
            .iter()
            .find(|(k, p)| oracle.get(k) != Some(p))
            .map(|(k, _)| *k)
            .or_else(|| oracle.keys().find(|k| !owned.contains_key(k)).copied());
        return Err(format!(
            "partition views ({} keys) differ from oracle views ({} keys), first at key {diff:?}",
            owned.len(),
            oracle.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two partitions and one oracle group of three replicas each, with
    /// keys 0 and 2 on partition 0 and key 1 on partition 1.
    fn agreeing() -> Vec<Vec<Option<LocationView>>> {
        let p0 = vec![(0, 0), (2, 0)];
        let p1 = vec![(1, 1)];
        let oracle = vec![(0, 0), (1, 1), (2, 0)];
        vec![
            vec![Some(p0.clone()), Some(p0.clone()), Some(p0)],
            vec![Some(p1.clone()), None, Some(p1)],
            vec![Some(oracle.clone()), Some(oracle.clone()), Some(oracle)],
        ]
    }

    #[test]
    fn agreeing_views_pass() {
        assert_eq!(check_views(&agreeing(), 2), Ok(()));
    }

    #[test]
    fn diverging_replica_is_rejected() {
        let mut v = agreeing();
        v[0][2] = Some(vec![(0, 0)]);
        let err = check_views(&v, 2).unwrap_err();
        assert!(err.contains("group 0") && err.contains("key 2: Some(0) vs None"), "{err}");
    }

    #[test]
    fn partition_union_differing_from_oracle_is_rejected() {
        let mut v = agreeing();
        for r in v[2].iter_mut() {
            *r = Some(vec![(0, 0), (1, 0), (2, 0)]);
        }
        assert!(check_views(&v, 2).unwrap_err().contains("differ from oracle"));
    }

    #[test]
    fn doubly_owned_key_is_rejected() {
        let mut v = agreeing();
        for r in v[1].iter_mut().flatten() {
            r.push((0, 1));
        }
        assert!(check_views(&v, 2).is_err());
    }

    #[test]
    fn group_without_live_replica_is_rejected() {
        let mut v = agreeing();
        v[1] = vec![None, None, None];
        assert!(check_views(&v, 2).unwrap_err().contains("no live replica"));
    }
}
