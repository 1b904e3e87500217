(* The store lives in [E9_core]; this alias keeps the [E9_rpc.Cache]
   name the daemon and its clients use. *)
include E9_core.Cache
