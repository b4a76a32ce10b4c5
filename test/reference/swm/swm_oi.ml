(* lib/swm's modules reach the toolkit as [Swm_oi]; in this copy that is the
   toolkit with its reference realization. *)
module Wobj = Swm_oi_reference.Wobj
module Menu = Swm_oi_reference.Menu
module Panel_spec = Swm_oi_reference.Panel_spec
