(** Maps keyed by [int]: the side tables that hold what lies beyond the
    reach of {!Causal}'s delivery rings (by [seq]) and of {!Online}'s
    message-log spine (by block number). *)

include Map.S with type key = int
